"""The benchmark prints exactly the metrics BENCHMARK.json declares, and its
output checks reject wrong answers."""

import json
import shutil
import subprocess
import sys
from pathlib import Path

import pytest
import run
import workloads

ROOT = Path(run.__file__).resolve().parents[1]
SPEC = json.loads((ROOT / "BENCHMARK.json").read_text())


def _declared(kind):
    return {m["name"]: m["unit"] for m in SPEC[kind]}


def test_declared_metrics_match_the_code():
    assert _declared("end_to_end") == run.END_TO_END
    assert _declared("per_layer") == run.per_layer_units()
    assert [w["name"] for w in SPEC["workloads"]] == list(workloads.WORKLOADS)


def _run(*args, cwd=ROOT):
    cmd = [sys.executable, str(Path(cwd) / "perfbench" / "run.py"), *args]
    return subprocess.run(cmd, cwd=cwd, capture_output=True, text=True, timeout=170)


@pytest.mark.parametrize("trace,kind", [("0", "end_to_end"), ("1", "per_layer")])
def test_printed_metrics_match_benchmark_json(trace, kind):
    done = _run("--workload", "classify-order2", "--seed", "5", "--seconds", "0.1", "--trace", trace)
    assert done.returncode == 0, done.stderr
    result = json.loads(done.stdout.strip().splitlines()[-1])
    assert set(result) == {"correct", "attempted", "failed", "metrics"}
    assert result["correct"] is True and result["failed"] == 0 and result["attempted"] >= 1
    assert {name: m["unit"] for name, m in result["metrics"].items()} == _declared(kind)


def test_fails_without_the_program_sources(tmp_path):
    shutil.copy(ROOT / "BENCHMARK.json", tmp_path)
    shutil.copytree(ROOT / "perfbench", tmp_path / "perfbench", ignore=shutil.ignore_patterns("out", "__pycache__"))
    done = _run("--workload", "classify-order2", "--seed", "1", "--seconds", "1", "--trace", "0", cwd=tmp_path)
    assert done.returncode != 0
    assert done.stdout.strip() == ""


def test_missing_kernel_hook_reports_null_not_zero(monkeypatch):
    from ak4 import jets

    monkeypatch.delattr(jets, "_mul_raw")
    tracer = run.Tracer()
    try:
        missing = run.install(tracer)
    finally:
        tracer.uninstall()
    assert missing == {"jets.mul_ms", "jets.mul_self_ms", "jets.mul_calls", "jets.mul_products", "jets.mul_bytes_computed"}


CLASSIFY_OK = "\n".join(
    f"{c:22s} {v:18s} [-]  |nabla J|={nj} |dOmega|=0.000e+00 g1=1.0e-15 g2=0.000e+00 g3=0.000e+00"
    for c, v, nj in [
        ("flat", "KAHLER", "0.000e+00"),
        ("product-surfaces", "KAHLER", "0.000e+00"),
        ("fubini-study", "KAHLER", "1.000e-16"),
        ("complex-hyperbolic", "KAHLER", "0.000e+00"),
        ("kodaira-thurston", "AK", "1.414e+00"),
    ]
)


def test_classify_check_accepts_reference_and_takes_margin():
    outcome = workloads.check_classify(None, 0, CLASSIFY_OK, 24)
    assert outcome.ok
    assert outcome.margin == pytest.approx(8.0)  # log10(1e-7 / 1e-15)


@pytest.mark.parametrize(
    "code,text",
    [
        (1, CLASSIFY_OK),
        (0, CLASSIFY_OK.replace("AK ", "AK-G1 ")),
        (0, CLASSIFY_OK.replace("fubini-study", "fubini")),
        (0, CLASSIFY_OK + "\nTraceback (most recent call last):"),
    ],
)
def test_classify_check_rejects_wrong_output(code, text):
    assert not workloads.check_classify(None, code, text, 24).ok


def _kappa_output(points, residual="1.000e-15", mark="pass"):
    rows = [f"  {c:20s} {'[0.1 0.2 0.3 0.4]':>44s}  {residual}  {mark}" for c in workloads.CHARTS for _ in range(points)]
    return "\n".join(["check kappa  (tolerance 1.0e-09)", *rows, f"worst residual {residual} on flat -> {mark}"])


def test_check_kappa_check():
    outcome = workloads.check_check_kappa(None, 0, _kappa_output(2), 2)
    assert outcome.ok and outcome.margin == pytest.approx(6.0)
    assert not workloads.check_check_kappa(None, 0, _kappa_output(2), 3).ok
    assert not workloads.check_check_kappa(None, 0, _kappa_output(2, "2.000e-09", "FAIL"), 2).ok


def test_report_check(tmp_path):
    path = tmp_path / "r.json"
    inv = workloads.Invocation(("report",), chart="kodaira-thurston", json_path=str(path))
    doc = {
        "points": [{}, {}],
        "aggregate": {"all_pass": True, "verdicts": ["AK"], "identities": {"kappa": {"residual": 1e-15, "tol": 1e-9}}},
    }
    path.write_text(json.dumps(doc))
    outcome = workloads.check_report(inv, 0, "", 2)
    assert outcome.ok and outcome.margin == pytest.approx(6.0)
    doc["aggregate"]["all_pass"] = False
    path.write_text(json.dumps(doc))
    assert not workloads.check_report(inv, 0, "", 2).ok
    doc["aggregate"].update(all_pass=True, verdicts=["KAHLER"])
    path.write_text(json.dumps(doc))
    assert not workloads.check_report(inv, 0, "", 2).ok
