"""The benchmark's workloads: which CLI commands a round runs, and how each
command's output is checked.

A round covers all five catalog charts once. `report-order4` runs one
`report --json` per chart; `classify-order2` and `check-kappa` run one
command over `--chart all`. Every invocation is checked: exit code 0, the
verdict set per chart equal to `reference.json` (taken from the seed
commit), and for `report` also `aggregate.all_pass`. JSON output is not
compared byte for byte, because kernel changes legitimately move the last
bits of the residuals.

Each check also yields the residual margin in decades, log10(tol / residual)
minimised over what the command printed, so a faster kernel that spends
accuracy shows up as a smaller margin.
"""

from __future__ import annotations

import json
import math
import os
import re
from dataclasses import dataclass
from pathlib import Path

CHARTS = ("flat", "product-surfaces", "fubini-study", "complex-hyperbolic", "kodaira-thurston")
REFERENCE = json.loads((Path(__file__).with_name("reference.json")).read_text())["verdicts"]

#: The threshold `ak4 classify` decides verdicts with (gray.DEFAULT_VERDICT_TOL).
VERDICT_TOL = 1e-7


@dataclass(frozen=True)
class Invocation:
    argv: tuple[str, ...]
    chart: str | None = None  # set when the invocation covers one chart
    json_path: str | None = None


@dataclass(frozen=True)
class Outcome:
    ok: bool
    reason: str = ""
    margin: float | None = None  # decades between tolerance and worst residual


def _margin(pairs) -> float | None:
    """min log10(tol / residual) over (residual, tol) pairs with residual > 0."""
    decades = [math.log10(tol / res) for res, tol in pairs if res > 0]
    return min(decades) if decades else None


def _fail(reason: str) -> Outcome:
    return Outcome(False, reason)


# -- report --chart <each> --json ---------------------------------------------


def report_round(seed: int, points: int, workdir: str) -> list[Invocation]:
    return [
        Invocation(
            ("report", "--chart", c, "--points", str(points), "--seed", str(seed), "--json", os.path.join(workdir, f"{c}.json")),
            chart=c,
            json_path=os.path.join(workdir, f"{c}.json"),
        )
        for c in CHARTS
    ]


def check_report(inv: Invocation, code: int, stdout: str, points: int) -> Outcome:
    if code != 0:
        return _fail(f"report {inv.chart}: exit code {code}")
    try:
        with open(inv.json_path, encoding="utf-8") as fh:
            doc = json.load(fh)
        agg = doc["aggregate"]
        n_points = len(doc["points"])
    except (OSError, ValueError, KeyError, TypeError) as exc:
        return _fail(f"report {inv.chart}: unreadable JSON report ({exc})")
    if agg.get("all_pass") is not True:
        return _fail(f"report {inv.chart}: aggregate.all_pass is not true")
    if sorted(agg.get("verdicts", ())) != REFERENCE[inv.chart]:
        return _fail(f"report {inv.chart}: verdicts {agg.get('verdicts')} != reference {REFERENCE[inv.chart]}")
    if n_points != points:
        return _fail(f"report {inv.chart}: {n_points} points in the report, expected {points}")
    margin = _margin((w["residual"], w["tol"]) for w in agg["identities"].values())
    return Outcome(True, margin=margin)


# -- classify --chart all --order 2 -------------------------------------------

_CLASSIFY_LINE = re.compile(
    r"^(?P<chart>\S+)\s+(?P<verdicts>\S+)\s+\[(?P<flags>[^\]]*)\]\s+"
    r"\|nabla J\|=(?P<nabla_j>\S+) \|dOmega\|=(?P<d_omega>\S+) g1=(?P<g1>\S+) g2=(?P<g2>\S+) g3=(?P<g3>\S+)$"
)

#: Ladder values that must vanish for a verdict; their margin is taken
#: against the verdict threshold.
_ZERO_FOR_VERDICT = {"KAHLER": ("nabla_j", "d_omega", "g1", "g2", "g3"), "AK": ("d_omega",)}


def classify_round(seed: int, points: int, workdir: str) -> list[Invocation]:
    return [Invocation(("classify", "--chart", "all", "--order", "2", "--points", str(points), "--seed", str(seed)))]


def check_classify(inv: Invocation, code: int, stdout: str, points: int) -> Outcome:
    if code != 0:
        return _fail(f"classify: exit code {code}")
    seen = {}
    pairs = []
    for line in stdout.splitlines():
        m = _CLASSIFY_LINE.match(line)
        if m is None:
            return _fail(f"classify: unparsed line {line!r}")
        verdicts = sorted(m["verdicts"].split("/"))
        seen[m["chart"]] = verdicts
        for verdict in verdicts:
            pairs += [(float(m[key]), VERDICT_TOL) for key in _ZERO_FOR_VERDICT.get(verdict, ())]
    if seen != {c: REFERENCE[c] for c in CHARTS}:
        return _fail(f"classify: verdicts {seen} != reference")
    return Outcome(True, margin=_margin(pairs))


# -- check kappa --chart all ----------------------------------------------------

_CHECK_HEADER = re.compile(r"^check kappa  \(tolerance (?P<tol>\S+)\)$")
_CHECK_ROW = re.compile(r"^  (?P<chart>\S+)\s+\[[^\]]*\]\s+(?P<residual>\S+)  (?P<mark>pass|FAIL)$")


def check_kappa_round(seed: int, points: int, workdir: str) -> list[Invocation]:
    return [Invocation(("check", "kappa", "--chart", "all", "--points", str(points), "--seed", str(seed)))]


def check_check_kappa(inv: Invocation, code: int, stdout: str, points: int) -> Outcome:
    if code != 0:
        return _fail(f"check kappa: exit code {code}")
    lines = stdout.splitlines()
    header = _CHECK_HEADER.match(lines[0]) if lines else None
    if header is None:
        return _fail("check kappa: missing header line")
    tol = float(header["tol"])
    rows: dict[str, int] = {}
    pairs = []
    for line in lines[1:-1]:
        m = _CHECK_ROW.match(line)
        if m is None:
            return _fail(f"check kappa: unparsed row {line!r}")
        if m["mark"] != "pass":
            return _fail(f"check kappa: {m['chart']} row failed")
        rows[m["chart"]] = rows.get(m["chart"], 0) + 1
        pairs.append((float(m["residual"]), tol))
    if rows != {c: points for c in CHARTS}:
        return _fail(f"check kappa: rows per chart {rows}, expected {points} for each catalog chart")
    if not lines[-1].startswith("worst residual") or not lines[-1].endswith("-> pass"):
        return _fail(f"check kappa: bad summary line {lines[-1]!r}")
    return Outcome(True, margin=_margin(pairs))


@dataclass(frozen=True)
class Workload:
    name: str
    why: str
    points: int  # sample points per chart in one invocation
    round: object  # (seed, points, workdir) -> list[Invocation]
    check: object  # (invocation, exit code, stdout, points) -> Outcome


WORKLOADS = {
    w.name: w
    for w in (
        Workload(
            "report-order4",
            "report --json per catalog chart at order 4: the command people run; second order and 70-coefficient jets dominate",
            2,
            report_round,
            check_report,
        ),
        Workload(
            "classify-order2",
            "classify --chart all --order 2: second order skipped, 15-coefficient jets, structure evaluation is a large share",
            4,
            classify_round,
            check_classify,
        ),
        Workload(
            "check-kappa",
            "check kappa --chart all: an algebraic order-2 identity that pays for the whole order-4 pipeline",
            1,
            check_kappa_round,
            check_check_kappa,
        ),
    )
}
