"""Digest every CLI output of a fixed comparison matrix, for byte-identity checks.

Runs `ak4.cli.main` in-process over:

- JSON and text `report` for every catalog chart, seeds 42 and 7, orders 2, 3
  and 4, at 6 points;
- `classify --chart all --points 4` at orders 2 and 4;
- `check <name>` for every name in `cli.CHECK_NAMES`, at
  `--chart all --points 3 --seed 5`, orders 2 and 4;
- with `--tol-scale 1e8`, which must move no hypothesis: `report --json` for
  kodaira-thurston (seed 42, order 4, 6 points), and `check` on the
  conditional rows `lemma1-alpha`, `beta0`, `lemma6` and `bach-3way` at
  `--chart all --points 3 --seed 5 --order 4`;
- with no flag but `--points`, so that each command's flag defaults are
  covered: `report --points 3`, `check kappa --points 2` and
  `classify --points 2`;
- one-point batches of the structure stage: `report --json -` for every
  catalog chart, `classify --chart all` and `check kappa --chart all`, all
  at `--points 1`;
- a bad sample point: `report`, `classify` and `check kappa` on the
  `half-bad` chart file (written to a temporary file, labelled by its name
  so that no digest depends on the path) at `--points 6 --seed 3`, where
  points 3 and 5 are bad and each command must stop at point 3;
- every expression feature: `report --json -` at orders 2 and 4 and
  `classify` on the `every-function` chart file (written and labelled like
  `half-bad`) at `--points 4 --seed 5`, whose entries use every function,
  pi and e in both spellings, and repeat subexpressions across entries;
- the shape of the benchmark's `report-order4` workload: `report --json -`
  for every catalog chart at `--points 2 --order 4`;
- an overflowing field: `report --points 2` on the `huge-flat` chart file
  (written and labelled like `half-bad`), the flat chart on the box
  [0, 1e308]^4, where the Weitzenboeck check's seeded 2-form overflows, so
  that row fails with a NaN and nothing may reach stderr;

and prints one `sha256  <case>` line per output. The digest covers the exit
code, stdout and stderr; the `timing_s` line of a JSON report is removed
first, since it is the only field that changes from run to run.

It then digests the structure stage itself, `charts.structure_at`, at
orders 2, 3 and 4 on 4 points (seed 5) of every catalog chart together and
of the `every-function` chart, each as one batch and as one-point batches:
one `sha256  structure ...` line per slice, over every `StructureBatch`
field at each point, the mu, phi and J phi jets read after the stage
returns, every jet's order and coefficient bytes (so the sign of zero
counts), and the `repr` of the invariant residuals as a dict by invariant. Two trees
produce the same outputs exactly when their fingerprint files are equal:

    python3 scripts/report_fingerprint.py > before.txt
    (change the code)
    python3 scripts/report_fingerprint.py > after.txt
    diff before.txt after.txt
"""

from __future__ import annotations

import os

# One BLAS thread, set before numpy is imported, so that summation order is fixed.
for _var in ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS"):
    os.environ[_var] = "1"

import atexit  # noqa: E402
import contextlib  # noqa: E402
import functools  # noqa: E402
import hashlib  # noqa: E402
import io  # noqa: E402
import json  # noqa: E402
import math  # noqa: E402
import re  # noqa: E402
import shutil  # noqa: E402
import sys  # noqa: E402
import tempfile  # noqa: E402
from pathlib import Path  # noqa: E402

sys.path.insert(0, str(Path(__file__).resolve().parent.parent / "src"))

from ak4 import charts, cli  # noqa: E402

TIMING_LINE = re.compile(r'^\s*"timing_s": .*\n', re.MULTILINE)

#: A chart whose metric g = (x1 + 1/2)(dx1^2 + dx2^2) + dx3^2 + dx4^2 is
#: indefinite where x1 < -1/2, with the standard J.
HALF_BAD = {
    "name": "half-bad",
    "coords": ["x1", "x2", "x3", "x4"],
    "domain": [[-1.0, 1.0]] * 4,
    "g": {"11": "x1 + 0.5", "22": "x1 + 0.5", "33": "1", "44": "1", "12": "0", "13": "0", "14": "0", "23": "0", "24": "0", "34": "0"},
    "J": {f"{i}_{j}": {(2, 1): "1", (1, 2): "-1", (4, 3): "1", (3, 4): "-1"}.get((i, j), "0") for i in range(1, 5) for j in range(1, 5)},
}


def every_function_chart() -> dict:
    """A chart whose entries use every function, pi and e, each constant
    also in its numeric spelling, with subexpressions repeated across
    entries: g = f(x)^2 (dx1^2 + ... + dx4^2), and the standard J rotated in
    the (x2, x3) plane by an angle t(x), J d1 = cos(t) d2 + sin(t) d3."""
    f = "{e} + exp(x1/2)*cos(x2) + log(2 + x3)*sqrt(1 + x4^2)/cosh(x1) + sinh(x2)*tanh(x3) + tan(x4/{pi})"
    t = "atan(x1)*{e}/{pi} + tanh(x2)*pi/4 + sin(x3)*x4"
    e, pi = repr(math.e), repr(math.pi)
    f_named, f_numeric = f.format(e="e", pi="pi"), f.format(e=e, pi=pi)
    c, s = f"cos({t.format(e='e', pi=pi)})", f"sin({t.format(e=e, pi='pi')})"
    g = {key: "0" for key in ("12", "13", "14", "23", "24", "34")}
    g.update({"11": f"({f_named})^2", "22": f"({f_numeric})^2", "33": f"({f_named})^2", "44": f"({f_numeric})^2"})
    J = {f"{i}_{k}": "0" for i in range(1, 5) for k in range(1, 5)}
    J.update({"1_2": f"-{c}", "1_3": f"-{s}", "2_1": c, "2_4": s, "3_1": s, "3_4": f"-{c}", "4_2": f"-{s}", "4_3": c})
    return {"name": "every-function", "coords": ["x1", "x2", "x3", "x4"], "domain": [[-0.5, 0.5]] * 4, "g": g, "J": J}


#: The flat chart on a box whose coordinates reach 1e308.
HUGE_FLAT = charts.chart_to_dict(charts.catalog_chart("flat")) | {"name": "huge-flat", "domain": [[0.0, 1e308]] * 4}

#: The chart files of the matrix, by name.
CHART_FILES = {chart["name"]: chart for chart in (HALF_BAD, every_function_chart(), HUGE_FLAT)}


@functools.cache
def chart_path(name: str) -> str:
    """CHART_FILES[name] as a chart file in a temporary folder, removed when
    the process exits."""
    folder = tempfile.mkdtemp(prefix="ak4-fingerprint-")
    atexit.register(shutil.rmtree, folder, True)
    path = str(Path(folder) / f"{name}.json")
    Path(path).write_text(json.dumps(CHART_FILES[name]), encoding="utf-8")
    return path


def cases():
    """(label, argv) for every output in the comparison matrix."""
    for spec in charts.catalog():
        for seed in (42, 7):
            for order in (2, 3, 4):
                base = ["report", "--chart", spec.name, "--seed", str(seed), "--order", str(order), "--points", "6"]
                yield " ".join(base + ["--json", "-"]), base + ["--json", "-"]
                yield " ".join(base), base
    for order in (2, 4):
        argv = ["classify", "--chart", "all", "--points", "4", "--order", str(order)]
        yield " ".join(argv), argv
    for name in cli.CHECK_NAMES:
        for order in (2, 4):
            argv = ["check", name, "--chart", "all", "--points", "3", "--seed", "5", "--order", str(order)]
            yield " ".join(argv), argv
    loose = ["--tol-scale", "1e8"]
    argv = ["report", "--chart", "kodaira-thurston", "--seed", "42", "--order", "4", "--points", "6", *loose, "--json", "-"]
    yield " ".join(argv), argv
    for name in ("lemma1-alpha", "beta0", "lemma6", "bach-3way"):
        argv = ["check", name, "--chart", "all", "--points", "3", "--seed", "5", "--order", "4", *loose]
        yield " ".join(argv), argv
    for argv in (["report", "--points", "3"], ["check", "kappa", "--points", "2"], ["classify", "--points", "2"]):
        yield " ".join(argv), argv
    for spec in charts.catalog():
        argv = ["report", "--chart", spec.name, "--points", "1", "--json", "-"]
        yield " ".join(argv), argv
    for argv in (["classify", "--chart", "all", "--points", "1"], ["check", "kappa", "--chart", "all", "--points", "1"]):
        yield " ".join(argv), argv
    for command in (["report"], ["classify"], ["check", "kappa"]):
        tail = ["--points", "6", "--seed", "3"]
        yield " ".join([*command, "--chart", HALF_BAD["name"], *tail]), [*command, "--chart", chart_path(HALF_BAD["name"]), *tail]
    tail = ["--points", "4", "--seed", "5"]
    for command in (["report", "--order", "2", "--json", "-"], ["report", "--order", "4", "--json", "-"], ["classify"]):
        yield " ".join([*command, "--chart", "every-function", *tail]), [*command, "--chart", chart_path("every-function"), *tail]
    for spec in charts.catalog():
        argv = ["report", "--chart", spec.name, "--points", "2", "--order", "4", "--json", "-"]
        yield " ".join(argv), argv
    argv = ["report", "--points", "2"]
    yield " ".join([*argv, "--chart", HUGE_FLAT["name"]]), [*argv, "--chart", chart_path(HUGE_FLAT["name"])]


#: The jet fields of a `charts.StructureBatch`, in the order they are digested.
STRUCTURE_JETS = ("g", "g_inv", "J", "omega", "mu", "phi", "jphi")


def structure_cases():
    """(label, batches, order, one_point) for every structure slice."""
    every_function = charts.chart_from_dict(every_function_chart())
    for order in (2, 3, 4):
        for chart, specs in (("all", charts.catalog()), ("every-function", [every_function])):
            batches = [(spec, spec.sample_points(4, 5)) for spec in specs]
            for one_point in (False, True):
                label = f"structure --chart {chart} --order {order} --points 4 --seed 5"
                yield label + (" one-point-batches" if one_point else ""), batches, order, one_point


def structure_fingerprint(batches, order: int, one_point: bool) -> str:
    """The digest of every point of the structure batches, point by point:
    each field's entry at the point, the jets read after the stage returns."""
    if one_point:
        structures = [charts.structure_at([(spec, p[None])], order) for spec, pts in batches for p in pts]
    else:
        structures = [charts.structure_at(batches, order)]
    digest = hashlib.sha256()
    for structure in structures:
        for k, point in enumerate(structure.points):
            digest.update(repr((point, structure.order)).encode("utf-8"))
            for name in STRUCTURE_JETS:
                jet = getattr(structure, name)[k]
                digest.update(f"{name} {jet.order} {jet.c.shape}".encode("utf-8"))
                digest.update(jet.c.tobytes())
            digest.update(structure.frame[k].tobytes())
            digest.update(repr(dict(zip(charts.INVARIANTS, structure.invariant_residuals[k].tolist()))).encode("utf-8"))
    return digest.hexdigest()


def fingerprint(argv: list[str]) -> str:
    out, err = io.StringIO(), io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        code = cli.main(argv)
    text = f"exit {code}\n" + TIMING_LINE.sub("", out.getvalue()) + "\n--stderr--\n" + err.getvalue()
    return hashlib.sha256(text.encode("utf-8")).hexdigest()


def main() -> int:
    for label, argv in cases():
        print(f"{fingerprint(argv)}  {label}", flush=True)
    for label, batches, order, one_point in structure_cases():
        print(f"{structure_fingerprint(batches, order, one_point)}  {label}", flush=True)
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
