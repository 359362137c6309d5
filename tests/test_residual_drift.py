"""scripts/residual_drift.py: the comparison of two trees' report documents and check outputs."""

from __future__ import annotations

import copy
import sys
from pathlib import Path

import pytest

from ak4 import cli
from conftest import CATALOG_NAMES

sys.path.insert(0, str(Path(__file__).resolve().parent.parent / "scripts"))

import residual_drift  # noqa: E402

LABEL = "report --chart kodaira-thurston --points 2 --json -"


def _result() -> dict:
    doc, code = cli.run_report(cli.RunConfig(chart="kodaira-thurston", points=2))
    doc = copy.deepcopy(doc)
    del doc["timing_s"]
    return {"exit": code, "doc": doc, "stderr": ""}


def test_identical_runs_have_no_drift():
    rows, second, flips = residual_drift.compare([LABEL], [_result()], [_result()])
    assert flips == []
    assert rows and set(rows.values()) == {(0.0, None)}
    assert second and set(second.values()) == {(0.0, None)}


def test_a_moved_residual_is_measured_and_a_flip_is_listed():
    here, other = _result(), _result()
    here["doc"]["points"][0]["second_order"]["delta W = C"] += 1e-3
    here["doc"]["points"][1]["second_order"]["delta W = C"] += 2e-3
    here["doc"]["points"][1]["identities"][0]["residual"] += 1e-5
    rows, second, flips = residual_drift.compare([LABEL], [here], [other])
    assert flips == []
    delta, where = second["delta W = C"]
    assert delta == pytest.approx(2e-3) and where == f"{LABEL}, point 1"
    assert rows["structure-invariants"][1] == f"{LABEL}, point 1"
    assert rows["kappa"] == (0.0, None)
    verdict = here["doc"]["points"][0]["verdict"]
    here["doc"]["points"][0]["verdict"] = "KAHLER"
    here["doc"]["points"][1]["identities"][0]["pass"] = False
    here["exit"] = 1
    _, _, flips = residual_drift.compare([LABEL], [here], [other])
    assert len(flips) == 3
    assert flips[0].endswith("exit code 0 -> 1")
    assert flips[1].endswith(f"point 0: verdict {verdict} -> KAHLER")
    assert flips[2].endswith("point 1: structure-invariants pass True -> False")


def test_a_changed_second_order_message_is_a_flip():
    here, other = _result(), _result()
    message = other["doc"]["points"][0]["second_order"]["bach_ak_skipped"]
    here["doc"]["points"][0]["second_order"]["bach_ak_skipped"] = "rewritten"
    _, second, flips = residual_drift.compare([LABEL], [here], [other])
    assert "bach_ak_skipped" not in second
    assert flips == [f"{LABEL}, point 0: second-order bach_ak_skipped {message} -> rewritten"]


def test_a_chart_file_case_is_labelled_by_its_chart_name():
    cases = residual_drift.report_cases()
    labels = [label for label, _ in cases]
    assert len(set(labels)) == len(labels)
    assert "report --order 4 --json - --chart every-function --points 4 --seed 5" in labels
    assert "report --chart half-bad --points 6 --seed 3 --json -" in labels
    assert not [label for label in labels if "ak4-fingerprint-" in label]  # the temporary folder


CHECK_ARGV = ["check", "lemma1-alpha", "--chart", "all", "--points", "1", "--order", "2"]


def _check_result(capsys) -> dict:
    code = cli.main(CHECK_ARGV)
    return {"exit": code, "doc": None, "stdout": capsys.readouterr().out, "stderr": ""}


def test_check_lines_parse_the_residual_and_mark_of_every_chart_point(capsys):
    result = _check_result(capsys)
    lines = residual_drift.check_lines(result["stdout"])
    assert [where.split()[0] for where, _, _ in lines] == list(CATALOG_NAMES)
    assert [mark for _, _, mark in lines] == ["pass"] * 4 + ["not applicable"]
    assert all(isinstance(res, float) for _, res, _ in lines[:4]) and lines[4][1] is None


def test_identical_checks_have_no_drift(capsys):
    cases = [(" ".join(CHECK_ARGV), CHECK_ARGV)]
    table, flips = residual_drift.compare_checks(cases, [_check_result(capsys)], [_check_result(capsys)])
    assert table == {"lemma1-alpha": (0.0, None)} and flips == []


def test_a_moved_check_residual_is_measured_and_a_changed_mark_is_a_flip(capsys):
    label = " ".join(CHECK_ARGV)
    here, other = _check_result(capsys), _check_result(capsys)
    where, residual, _ = residual_drift.check_lines(other["stdout"])[2]  # fubini-study
    here["stdout"] = other["stdout"].replace(f"{where}  {residual:.3e}", f"{where}  {residual + 1e-9:.3e}")
    table, flips = residual_drift.compare_checks([(label, CHECK_ARGV)], [here], [other])
    assert flips == []
    delta, where = table["lemma1-alpha"]
    assert delta == pytest.approx(1e-9, rel=1e-3) and where == f"{label}, line 2"
    here["stdout"] = other["stdout"].replace("  pass", "  FAIL", 1).replace("not applicable", "1.000e+00  pass")
    here["exit"] = 1
    _, flips = residual_drift.compare_checks([(label, CHECK_ARGV)], [here], [other])
    assert len(flips) == 3
    assert flips[0] == f"{label}: exit code 0 -> 1"
    assert flips[1].startswith(f"{label}, line 0: flat") and " pass -> flat " in flips[1] and flips[1].endswith(" FAIL")
    assert flips[2].startswith(f"{label}, line 4: kodaira-thurston") and " not applicable -> kodaira-thurston " in flips[2]
    assert flips[2].endswith(" pass")


def test_the_check_cases_are_the_fingerprint_matrix_check_cases():
    cases = residual_drift.check_cases()
    labels = [label for label, _ in cases]
    assert cases and all(argv[0] == "check" for _, argv in cases)
    assert "check nabla2-omega-shape --chart all --points 3 --seed 5 --order 2" in labels
    assert "check nabla2-omega-shape --chart all --points 3 --seed 5 --order 4" in labels
    assert "check kappa --chart all --points 1" in labels
