"""Benchmark of the ak4 command line, end to end and per layer.

Run from the repository root:

  python3 perfbench/run.py --workload report-order4 --seed 1 --seconds 25 --trace 0

The benchmark calls the public entry point `ak4.cli.main` in this process, on
one thread, with the BLAS thread count pinned to 1, for `--seconds` seconds of
complete rounds (a round covers the five catalog charts once; see
workloads.py). Every command's output is checked, on `--seed` and on a second
seed derived from it. The last line of standard output is one JSON object:

  {"correct": ..., "attempted": ..., "failed": ..., "metrics": {...}}

`--trace 0` reports the end-to-end metrics. `--trace 1` alternates untraced
rounds with traced ones (spans recorded by spans.Tracer around each function
in TRACED), reports the per-layer metrics and writes every span to
perfbench/out/. A layer that does not run on a workload reads 0 and is printed
as n/a; a layer whose function no longer exists reads null.
"""

from __future__ import annotations

import os

BLAS_THREAD_VARS = ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS", "BLIS_NUM_THREADS", "VECLIB_MAXIMUM_THREADS")
# numpy reads these when it is first imported, so they are set before any import of it.
os.environ.update({var: "1" for var in BLAS_THREAD_VARS})

import argparse  # noqa: E402
import contextlib  # noqa: E402
import importlib  # noqa: E402
import io  # noqa: E402
import json  # noqa: E402
import math  # noqa: E402
import platform  # noqa: E402
import resource  # noqa: E402
import shutil  # noqa: E402
import statistics  # noqa: E402
import subprocess  # noqa: E402
import sys  # noqa: E402
import tempfile  # noqa: E402
import time  # noqa: E402
import traceback  # noqa: E402
from collections import Counter  # noqa: E402
from pathlib import Path  # noqa: E402
from typing import NamedTuple  # noqa: E402

import numpy as np  # noqa: E402

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SRC = ROOT / "src"
OUT = HERE / "out"

import calibration  # noqa: E402
from spans import Tracer, summarize  # noqa: E402
from workloads import CHARTS, WORKLOADS  # noqa: E402

#: Fresh interpreters timed for setup_s; the median is reported.
SETUP_REPEATS = 9
#: Fewest complete rounds in any timed phase, whatever --seconds says.
MIN_ROUNDS = 3
#: The output check also runs on seed + this offset.
SECOND_SEED_OFFSET = 104729

END_TO_END = {
    "points_per_ref_s": "1/s",
    "setup_s": "s",
    "peak_rss_mb": "MB",
    "residual_margin_decades": "decades",
}

#: (ak4 module, attribute, span name): one span per call of each.
TRACED = (
    ("charts", "structure_at", "charts.structure"),
    ("exprs", "eval_jet", "exprs.eval_jet"),
    ("riemann", "connection", "riemann.connection"),
    ("riemann", "curvature", "riemann.curvature"),
    ("riemann", "hermitian_first_order", "riemann.first_order"),
    ("riemann", "ricci_identity_check", "riemann.ricci_identity"),
    ("decomp", "decompose", "decomp.decompose"),
    ("gray", "gray_report", "gray.gray_report"),
    ("bianchi_bach", "second_order_report", "bianchi_bach.second_order"),
    ("bianchi_bach", "cotton_york", "bianchi_bach.cotton_york"),
    ("bianchi_bach", "delta_weyl", "bianchi_bach.delta_weyl"),
    ("bianchi_bach", "bach_direct", "bianchi_bach.bach_direct"),
    ("bianchi_bach", "bach_gauduchon", "bianchi_bach.bach_gauduchon"),
    ("bianchi_bach", "bach_almost_kahler", "bianchi_bach.bach_almost_kahler"),
    ("bianchi_bach", "weitzenboeck_check", "bianchi_bach.weitzenboeck"),
    ("bianchi_bach", "random_polynomial_2form", "bianchi_bach.random_2form"),
    ("cli", "write_json", "cli.write_json"),
    ("jets", "_mul_raw", "jets.mul"),
)
ROOT_SPAN = "cli.main"
CALL_COUNTS = ("exprs.eval_jet", "bianchi_bach.delta_weyl", "jets.mul")
#: Counters kept by the jet-multiply hook, beside its span.
KERNEL_COUNTERS = {"jets.mul_products": "count/point", "jets.mul_bytes_computed": "B/point"}


def per_layer_units() -> dict[str, str]:
    units = {}
    for _, _, name in TRACED:
        units[f"{name}_ms"] = "ms/point"
        units[f"{name}_self_ms"] = "ms/point"
    units[f"{ROOT_SPAN}_self_ms"] = "ms/point"
    units.update({f"{name}_calls": "count/point" for name in CALL_COUNTS})
    units.update(KERNEL_COUNTERS)
    units["trace.overhead_frac"] = "ratio"
    units["trace.coverage"] = "ratio"
    return units


def machine_info() -> dict:
    cpu = platform.processor()
    try:
        with open("/proc/cpuinfo", encoding="utf-8") as fh:
            cpu = next((line.split(":", 1)[1].strip() for line in fh if line.startswith("model name")), cpu)
    except OSError:
        pass
    return {
        "nproc": len(os.sched_getaffinity(0)),
        "cpu_model": cpu,
        "python": platform.python_version(),
        "numpy": np.__version__,
        "blas_threads": {var: os.environ[var] for var in BLAS_THREAD_VARS},
    }


def measure_setup() -> float:
    """Median seconds, at the reference machine speed, to import ak4.cli and
    resolve the charts in a fresh interpreter."""
    env = dict(os.environ, PYTHONPATH=str(SRC))
    cmd = [sys.executable, str(HERE / "setup_probe.py")]
    times = []
    for _ in range(SETUP_REPEATS + 1):
        done = subprocess.run(cmd, env=env, cwd=ROOT, capture_output=True, text=True, timeout=60, check=True)
        elapsed, unit = map(float, done.stdout.split())
        times.append(elapsed * calibration.REFERENCE_UNIT_S / unit)
    return statistics.median(times[1:])  # the first run fills the bytecode and file caches


def broadcast_size(sa: tuple, sb: tuple) -> int:
    """Element count of the broadcast of two (broadcast-compatible) shapes."""
    n = max(len(sa), len(sb))
    sa, sb = (1,) * (n - len(sa)) + sa, (1,) * (n - len(sb)) + sb
    return math.prod(y if x == 1 else x for x, y in zip(sa, sb))


def kernel_counter(jets):
    """on_call hook for jets._mul_raw(ca, cb, order): products and computed bytes.

    Products are leading elements x convolution pairs. Computed bytes count
    the float64 operands gathered (2 per pair), the products (1 per pair) and
    the outputs (1 per coefficient), per leading element.
    """
    pairs = [len(ia) for ia, _, _ in jets._MUL]
    ncoef = jets.NCOEF

    def on_call(tracer, args):
        ca, cb, order = args
        leading = broadcast_size(ca.shape[:-1], cb.shape[:-1])
        tracer.counters["jets.mul_products"] += leading * pairs[order]
        tracer.counters["jets.mul_bytes_computed"] += 8 * leading * (3 * pairs[order] + ncoef[order])

    return on_call


def install(tracer: Tracer) -> set[str]:
    """Wrap every TRACED function; returns the metrics that cannot be measured
    because a function (or the kernel's tables) no longer exists."""
    missing = set()
    for module_name, attr, name in TRACED:
        module = importlib.import_module(f"ak4.{module_name}")
        try:
            tracer.wrap(module, attr, name, kernel_counter(module) if name == "jets.mul" else None)
        except AttributeError:
            missing.add(name)
    return {metric for metric in per_layer_units() if any(metric.startswith(f"{name}_") for name in missing)}


class Timing(NamedTuple):
    key: str  # the chart of a one-chart command, "all" otherwise
    wall_s: float
    ref_s: float  # wall_s rescaled to the reference machine speed (calibration.py)


def round_seconds(rounds: list[list[Timing]], field: str) -> float:
    """A round's time: the median time of each command of the round, summed."""
    by_key: dict[str, list[float]] = {}
    for timings in rounds:
        for t in timings:
            by_key.setdefault(t.key, []).append(getattr(t, field))
    return sum(statistics.median(v) for v in by_key.values())


class Runner:
    """Runs rounds of a workload through ak4.cli.main and checks every output."""

    def __init__(self, cli, workload, workdir: str):
        self.cli = cli
        self.workload = workload
        self.workdir = workdir
        self.attempted = 0
        self.failures: list[str] = []
        self.margins: list[float] = []

    def invoke(self, argv, tracer: Tracer | None):
        out, err = io.StringIO(), io.StringIO()
        with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
            t0 = time.perf_counter()
            try:
                code = tracer.call(ROOT_SPAN, self.cli.main, list(argv)) if tracer else self.cli.main(list(argv))
            except SystemExit as exc:
                code = exc.code if isinstance(exc.code, int) else 2
            except Exception:
                code = -1
                err.write(traceback.format_exc())
            wall = time.perf_counter() - t0
        return code, out.getvalue(), err.getvalue(), wall

    def round(self, seed: int, points: int, tracer: Tracer | None = None) -> list[Timing]:
        """One round, each command timed between two calibration runs."""
        timings = []
        unit = calibration.unit_seconds()
        for inv in self.workload.round(seed, points, self.workdir):
            code, stdout, stderr, wall = self.invoke(inv.argv, tracer)
            after = calibration.unit_seconds()
            timings.append(Timing(inv.chart or "all", wall, wall * calibration.REFERENCE_UNIT_S * 2 / (unit + after)))
            unit = after
            outcome = self.workload.check(inv, code, stdout, points)
            self.attempted += 1
            if not outcome.ok:
                self.failures.append(f"seed {seed}: {outcome.reason} {stderr.strip()[-300:]}")
            elif outcome.margin is not None:
                self.margins.append(outcome.margin)
        return timings

    def timed(self, seed: int, seconds: float) -> list[list[Timing]]:
        """Complete rounds until `seconds` have passed (at least MIN_ROUNDS)."""
        rounds: list[list[Timing]] = []
        deadline = time.perf_counter() + seconds
        while len(rounds) < MIN_ROUNDS or time.perf_counter() < deadline:
            rounds.append(self.round(seed, self.workload.points))
        return rounds


def end_to_end(runner: Runner, seed: int, seconds: float) -> tuple[dict, list[str]]:
    """Set-up probes, then timed rounds; returns (metrics, problems)."""
    setup_s = measure_setup()
    runner.round(seed, 1)  # warm-up: lazy imports and caches
    rounds = runner.timed(seed, seconds)
    runner.round(seed + SECOND_SEED_OFFSET, runner.workload.points)
    per_round = len(CHARTS) * runner.workload.points
    print(f"# {len(rounds)} rounds of {per_round} points; {per_round / round_seconds(rounds, 'wall_s'):.4g} points per wall second")
    metrics = {
        "points_per_ref_s": per_round / round_seconds(rounds, "ref_s"),
        "setup_s": setup_s,
        "peak_rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0,
        "residual_margin_decades": min(runner.margins, default=None),
    }
    return metrics, [] if runner.margins else ["no residual was printed to take a margin from"]


def per_layer(runner: Runner, seed: int, seconds: float, trace_path: Path) -> tuple[dict, list[str]]:
    """Untraced and traced rounds, alternating on the same inputs so that both
    see the same machine speed; returns (metrics, problems)."""
    problems: list[str] = []
    runner.round(seed, 1)
    tracer = Tracer()
    untraced: list[list[Timing]] = []
    traced: list[list[Timing]] = []
    round_counts: list[Counter] = []
    deadline = time.perf_counter() + seconds
    while len(traced) < MIN_ROUNDS or time.perf_counter() < deadline:
        untraced.append(runner.round(seed, runner.workload.points))
        start = len(tracer.closed)
        try:
            missing = install(tracer)
            traced.append(runner.round(seed, runner.workload.points, tracer))
        finally:
            tracer.uninstall()
        round_counts.append(Counter(rec[1] for rec in tracer.closed[start:]) + tracer.counters)
        tracer.counters = Counter()
    runner.round(seed + SECOND_SEED_OFFSET, runner.workload.points)

    if any(c != round_counts[0] for c in round_counts):
        problems.append("call counts differ between traced rounds of the same inputs")
    spans = tracer.spans
    summary = summarize(spans)
    wall_ns = sum(t.wall_s for timings in traced for t in timings) * 1e9
    if sum(summary.self_ns.values()) != summary.root_ns:
        problems.append("self times do not add up to the traced time")
    points = len(traced) * len(CHARTS) * runner.workload.points
    kernel = sum(round_counts, Counter())

    metrics: dict[str, float | None] = {}
    for _, _, name in TRACED:
        metrics[f"{name}_ms"] = summary.inclusive_ns[name] / points / 1e6
        metrics[f"{name}_self_ms"] = summary.self_ns[name] / points / 1e6
    metrics[f"{ROOT_SPAN}_self_ms"] = summary.self_ns[ROOT_SPAN] / points / 1e6
    for name in CALL_COUNTS:
        metrics[f"{name}_calls"] = summary.calls[name] / points
    for name in KERNEL_COUNTERS:
        metrics[name] = kernel[name] / points
    metrics["trace.overhead_frac"] = round_seconds(traced, "ref_s") / round_seconds(untraced, "ref_s") - 1.0
    layer_ns = sum(summary.self_ns.values()) - summary.self_ns[ROOT_SPAN]
    metrics["trace.coverage"] = layer_ns / wall_ns
    for name in missing:
        metrics[name] = None
    not_run = sorted(name for _, _, name in TRACED if summary.calls[name] == 0 and f"{name}_ms" not in missing)

    trace_path.parent.mkdir(parents=True, exist_ok=True)
    with open(trace_path, "w", encoding="utf-8") as fh:
        json.dump(
            {
                "machine": machine_info(),
                "workload": runner.workload.name,
                "seed": seed,
                "points": points,
                "traced_wall_s": wall_ns / 1e9,
                "timing_fields": list(Timing._fields),
                "untraced_rounds": untraced,
                "traced_rounds": traced,
                "not_run": not_run,
                "missing": sorted(missing),
                "span_fields": ["name", "start_ns", "end_ns", "parent"],
                "spans": spans,
            },
            fh,
        )
    print(
        f"# traced wall {wall_ns / 1e9:.4f} s = layer self times {layer_ns / 1e9:.4f} s"
        f" + {ROOT_SPAN} self {summary.self_ns[ROOT_SPAN] / 1e9:.4f} s + outside spans {(wall_ns - summary.root_ns) / 1e9:.4f} s"
    )
    speed = round_seconds(traced, "ref_s") / round_seconds(traced, "wall_s")
    print(f"# machine speed during traced rounds: {speed:.3f} x the reference of calibration.py")
    print(f"# layers not run on this workload (reported as 0): {', '.join(not_run) or 'none'}")
    return metrics, problems


def _format(value) -> str:
    return "null" if value is None else f"{value:.6g}"


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    if not (SRC / "ak4" / "cli.py").is_file():
        print(f"error: no ak4 sources at {SRC}; run from a checkout of the repository", file=sys.stderr)
        return 2
    sys.path.insert(0, str(SRC))
    from ak4 import cli

    workload = WORKLOADS[args.workload]
    print(f"# machine: {json.dumps(machine_info(), sort_keys=True)}")
    OUT.mkdir(parents=True, exist_ok=True)
    workdir = tempfile.mkdtemp(prefix="work-", dir=OUT)
    runner = Runner(cli, workload, workdir)
    try:
        if args.trace:
            trace_path = OUT / f"spans-{workload.name}-seed{args.seed}.json"
            metrics, problems = per_layer(runner, args.seed, args.seconds, trace_path)
            units = per_layer_units()
            print(f"# spans written to {trace_path.relative_to(ROOT)}")
        else:
            metrics, problems = end_to_end(runner, args.seed, args.seconds)
            units = END_TO_END
    finally:
        shutil.rmtree(workdir, ignore_errors=True)

    for line in runner.failures[:10] + problems:
        print(f"# problem: {line}")
    for name, unit in units.items():
        print(f"# {name:40s} {_format(metrics[name]):>14s} {unit}")
    result = {
        "correct": not runner.failures and not problems,
        "attempted": runner.attempted,
        "failed": len(runner.failures),
        "metrics": {name: {"value": metrics[name], "unit": unit} for name, unit in units.items()},
    }
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
