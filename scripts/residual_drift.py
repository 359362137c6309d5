"""Compare the report and check residuals of this tree with those of another checkout.

Runs every `report` case of `scripts/report_fingerprint.py` as a JSON report
(`--json -` is added where the case prints text), and every `check` case as
it is, in both trees, each in its own interpreter importing that tree's
`src/`. It prints, for every identity row and every second-order residual
of the reports, and for every check name, the largest |difference| over all
cases and points with the case and point (or check line) where it is
largest (when it is not zero). It lists every change of a pass mark (a
check line's `pass`, `FAIL` or `not applicable`), a verdict, a flag, the
set of rows that apply, a second-order value that is not a float (such as
the `bach_ak_skipped` message), a check line's chart or point, or an exit
code. It exits 1 if there is any such change, and 0 otherwise:

    python3 scripts/residual_drift.py ../other-checkout
"""

from __future__ import annotations

import os

# One BLAS thread, set before numpy is imported, so that summation order is fixed.
for _var in ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS"):
    os.environ[_var] = "1"

import contextlib  # noqa: E402
import io  # noqa: E402
import json  # noqa: E402
import math  # noqa: E402
import re  # noqa: E402
import subprocess  # noqa: E402
import sys  # noqa: E402
from pathlib import Path  # noqa: E402

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent


#: A check line: the chart and point, then the residual and its mark, or
#: `not applicable`.
CHECK_LINE = re.compile(r"^  (?P<where>.*?)\s+(?:(?P<residual>\S+)  (?P<mark>pass|FAIL)|(?P<na>not applicable))$")


def _fingerprint_cases(command: str) -> list[tuple[str, list[str]]]:
    """(label, argv) of the fingerprint matrix's cases of one command. The
    label is the fingerprint's, which names a chart file by its chart name
    rather than its temporary path."""
    sys.path.insert(0, str(HERE))
    from report_fingerprint import cases

    return [(label, argv) for label, argv in cases() if argv[0] == command]


def report_cases() -> list[tuple[str, list[str]]]:
    """(label, argv) of the fingerprint matrix's report cases, each writing
    JSON to stdout."""
    out: list[tuple[str, list[str]]] = []
    for label, argv in _fingerprint_cases("report"):
        if "--json" not in argv:
            label, argv = f"{label} --json -", [*argv, "--json", "-"]
        if argv not in [seen for _, seen in out]:
            out.append((label, argv))
    return out


def check_cases() -> list[tuple[str, list[str]]]:
    """(label, argv) of the fingerprint matrix's check cases."""
    return _fingerprint_cases("check")


def run_tree(tree: Path, argvs: list[list[str]]) -> list[dict]:
    """Exit code, JSON document (None unless it printed one), stdout (None
    when it was a JSON document) and stderr of each case in `tree`."""
    done = subprocess.run(
        [sys.executable, str(Path(__file__).resolve()), "--run", str(tree)],
        input=json.dumps(argvs),
        capture_output=True,
        text=True,
        check=True,
    )
    return json.loads(done.stdout)


def _run_here(tree: str) -> int:
    """Child mode: run the cases read from stdin with `tree`'s ak4 and print
    the results; a case that prints no JSON document keeps its stdout."""
    sys.path.insert(0, str(Path(tree) / "src"))
    from ak4 import cli

    results = []
    for argv in json.loads(sys.stdin.read()):
        out, err = io.StringIO(), io.StringIO()
        with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
            code = cli.main(argv)
        doc = json.loads(out.getvalue()) if out.getvalue().startswith("{") else None
        if doc is not None:
            doc.pop("timing_s", None)
        results.append({"exit": code, "doc": doc, "stdout": out.getvalue() if doc is None else None, "stderr": err.getvalue()})
    print(json.dumps(results))
    return 0


def _delta(a: float, b: float) -> float:
    """|a - b|, 0 for two NaNs or equal infinities, inf when only one side is NaN."""
    if a == b or (math.isnan(a) and math.isnan(b)):
        return 0.0
    d = abs(a - b)
    return math.inf if math.isnan(d) else d


def _widen(table: dict[str, tuple[float, str | None]], name: str, delta: float, where: str) -> None:
    """Keep in table[name] the largest |delta| seen and where it was seen (None while it is 0)."""
    if name not in table or delta > table[name][0]:
        table[name] = (delta, where if delta else None)


def compare(labels: list[str], here: list[dict], other: list[dict]) -> tuple[dict, dict, list[str]]:
    """(max |delta| per identity, max |delta| per second-order residual, flips)
    over the cases named by `labels`; each max is a pair (|delta|,
    "<label>, point <i>" where it is largest, or None when it is 0)."""
    rows: dict[str, tuple[float, str | None]] = {}
    second: dict[str, tuple[float, str | None]] = {}
    flips: list[str] = []
    for label, a, b in zip(labels, here, other, strict=True):
        if a["exit"] != b["exit"]:
            flips.append(f"{label}: exit code {b['exit']} -> {a['exit']}")
        if a["doc"] is None or b["doc"] is None:
            if (a["doc"] is None) != (b["doc"] is None) or a["stderr"] != b["stderr"]:
                flips.append(f"{label}: output changed kind or error message")
            continue
        for i, (pa, pb) in enumerate(zip(a["doc"]["points"], b["doc"]["points"], strict=True)):
            where = f"{label}, point {i}"
            for key in ("verdict", "flags"):
                if pa[key] != pb[key]:
                    flips.append(f"{where}: {key} {pb[key]} -> {pa[key]}")
            names_a = [r["name"] for r in pa["identities"]]
            names_b = [r["name"] for r in pb["identities"]]
            if names_a != names_b:
                flips.append(f"{where}: applicable rows {names_b} -> {names_a}")
                continue
            for ra, rb in zip(pa["identities"], pb["identities"]):
                _widen(rows, ra["name"], _delta(ra["residual"], rb["residual"]), where)
                if ra["pass"] != rb["pass"]:
                    flips.append(f"{where}: {ra['name']} pass {rb['pass']} -> {ra['pass']}")
            sa, sb = pa.get("second_order", {}), pb.get("second_order", {})
            if sa.keys() != sb.keys():
                flips.append(f"{where}: second-order keys {sorted(sb)} -> {sorted(sa)}")
                continue
            for key, value in sa.items():
                if isinstance(value, float):
                    _widen(second, key, _delta(value, sb[key]), where)
                elif value != sb[key]:
                    flips.append(f"{where}: second-order {key} {sb[key]} -> {value}")
        agg_a, agg_b = a["doc"]["aggregate"], b["doc"]["aggregate"]
        for key in ("all_pass", "verdicts"):
            if agg_a[key] != agg_b[key]:
                flips.append(f"{label}: aggregate {key} {agg_b[key]} -> {agg_a[key]}")
        for name, worst in agg_a["identities"].items():
            before = agg_b["identities"].get(name)
            if before is None or worst["pass"] != before["pass"]:
                flips.append(f"{label}: aggregate {name} pass {before and before['pass']} -> {worst['pass']}")
    return rows, second, flips


def check_lines(stdout: str) -> list[tuple[str, float | None, str]]:
    """(chart and point, residual or None, mark) of each line of a check's
    output that reports a chart point."""
    rows = []
    for line in stdout.splitlines():
        m = CHECK_LINE.match(line)
        if m and m["na"]:
            rows.append((m["where"], None, m["na"]))
        elif m:
            rows.append((m["where"], float(m["residual"]), m["mark"]))
    return rows


def compare_checks(cases: list[tuple[str, list[str]]], here: list[dict], other: list[dict]) -> tuple[dict, list[str]]:
    """(max |delta| per check name, flips) over the (label, argv) check
    cases; each max is a pair (|delta|, "<label>, line <i>" where it is
    largest, or None when it is 0), i counting the case's chart-point lines."""
    table: dict[str, tuple[float, str | None]] = {}
    flips: list[str] = []
    for (label, argv), a, b in zip(cases, here, other, strict=True):
        if a["exit"] != b["exit"]:
            flips.append(f"{label}: exit code {b['exit']} -> {a['exit']}")
        if a["stderr"] != b["stderr"]:
            flips.append(f"{label}: error message changed")
        lines_a, lines_b = check_lines(a["stdout"]), check_lines(b["stdout"])
        if len(lines_a) != len(lines_b):
            flips.append(f"{label}: {len(lines_b)} -> {len(lines_a)} check lines")
            continue
        for i, ((where_a, res_a, mark_a), (where_b, res_b, mark_b)) in enumerate(zip(lines_a, lines_b)):
            at = f"{label}, line {i}"
            if (where_a, mark_a) != (where_b, mark_b):
                flips.append(f"{at}: {where_b} {mark_b} -> {where_a} {mark_a}")
            elif res_a is not None:
                _widen(table, argv[1], _delta(res_a, res_b), at)
    return table, flips


def main(argv: list[str]) -> int:
    if len(argv) == 2 and argv[0] == "--run":
        return _run_here(argv[1])
    if len(argv) != 1 or not (Path(argv[0]) / "src" / "ak4").is_dir():
        print("usage: residual_drift.py <other-checkout>  (a tree with src/ak4)", file=sys.stderr)
        return 2
    other_tree = Path(argv[0]).resolve()
    reports, checks = report_cases(), check_cases()
    labels, argvs = zip(*reports, *checks)
    here, other = run_tree(ROOT, list(argvs)), run_tree(other_tree, list(argvs))
    n = len(reports)
    rows, second, flips = compare(list(labels[:n]), here[:n], other[:n])
    check_table, check_flips = compare_checks(checks, here[n:], other[n:])
    flips += check_flips
    print(f"residual drift of {ROOT} against {other_tree}: {n} report cases, {len(checks)} check cases")
    tables = (("identity rows", rows), ("second-order residuals", second), ("check lines", check_table))
    for title, table in tables:
        print(f"{title} (max |delta| over cases and points):")
        width = max(map(len, table), default=0)
        for name, (delta, where) in sorted(table.items()):
            print(f"  {name:{width}s}  {delta:.3e}" + (f"  at {where}" if where else ""))
    print(f"changes of pass mark, verdict, flag, applicability, second-order message, check line or exit code: {len(flips)}")
    for line in flips:
        print(f"  {line}")
    return 1 if flips else 0


if __name__ == "__main__":
    raise SystemExit(main(sys.argv[1:]))
