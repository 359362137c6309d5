"""Command-line front end: identity reports, named checks, classification.

Commands:
  report    evaluate every identity on sampled points of one chart
  check     run a single named identity across charts/points
  classify  print the verdict ladder per chart
  catalog   list the built-in charts

Exit codes: 0 when every enabled identity passes its tolerance, 1 on an
identity failure, 2 on input errors (unknown chart, bad file, bad check
name). JSON reports carry a top-level "schema": "ak4/1" key and evolve
additively.
"""

from __future__ import annotations

import argparse
import functools
import json
import math
import os
import stat
import sys
import tempfile
import time
from collections.abc import Callable, Sequence
from dataclasses import dataclass

import numpy as np

from . import __version__, algebra, bianchi_bach, charts, decomp, gray, riemann, sandbox, tensorops
from .errors import AK4Error, DomainError, StructureError

#: Tolerance ladder: identities get the tolerance of their derivative order.
TOL_ALGEBRAIC = 1e-9
TOL_FIRST_ORDER = 1e-8
TOL_THIRD_ORDER = 1e-7
TOL_FOURTH_ORDER = 1e-6
#: The largest --points: numpy cannot shape the (count, 4) float64 point
#: draws past twice it.
MAX_COUNT = np.iinfo(np.intp).max // 64


@dataclass
class RunConfig:
    chart: str = "flat"
    points: int = 32
    seed: int = 42
    order: int = 4
    tol_scale: float = 1.0
    json_path: str | None = None
    checks: tuple[str, ...] = ()

    def __post_init__(self):
        if self.points < 1:
            raise AK4Error(f"--points must be >= 1, got {self.points}")
        if self.points > MAX_COUNT:
            raise AK4Error(f"--points must be <= {MAX_COUNT}, the most numpy can shape, got {self.points}")
        if self.order not in (2, 3, 4):
            raise AK4Error(f"--order must be 2, 3 or 4, got {self.order}")
        if not (math.isfinite(self.tol_scale) and self.tol_scale > 0):
            raise AK4Error(f"--tol-scale must be finite and positive, got {self.tol_scale}")
        if self.seed < 0:
            raise AK4Error(f"--seed must be >= 0, got {self.seed}")
        if self.json_path == "":
            raise AK4Error("--json must be a file path or '-', got ''")


@dataclass
class AnalysisBatch:
    """The pipeline of a batch of up to BATCH_POINTS sample points, from their
    validated structure: connection, curvature, first-order data,
    decomposition, the verdict ladder, the Lagrangian plane statistics and
    the W+ spectrum (`gr`) and the second-order report each run on the first
    read, once for the whole batch, on its leading point axis, at the
    structure's jet order. At these sizes a stage's cost is mostly Python
    overhead per call, which a batch pays once. Each stage takes the records
    of the stages before it and returns one record whose fields keep the
    point axis; the registry rows read the batch as columns, one value per
    point (`Identity`). The second-order report (`sor`) is a dict of such
    columns, whose closed Bach forms apply where `CLOSED_BACH` holds.
    """

    structure: charts.StructureBatch
    seed: int

    @functools.cached_property
    def conn(self) -> riemann.ConnectionBatch:
        return riemann.connection(self.structure)

    @functools.cached_property
    def cd(self) -> riemann.CurvatureBatch:
        return riemann.curvature(self.conn)

    @functools.cached_property
    def hfo(self) -> riemann.FirstOrderBatch:
        return riemann.hermitian_first_order(self.conn)

    @functools.cached_property
    def dr(self) -> decomp.DecompBatch:
        return decomp.decompose(self.cd)

    @functools.cached_property
    def ladder(self) -> gray.GrayLadder:
        return gray.classify(self.cd, self.dr, self.hfo)

    @functools.cached_property
    def gr(self) -> gray.GrayReport:
        return gray.gray_report(self.cd, self.dr, seed=self.seed)

    @functools.cached_property
    def sor(self) -> dict[str, list[float | None]] | None:
        if self.structure.order < 4:
            return None
        closed = [all(holds) for holds in zip(*(predicate(self) for predicate in CLOSED_BACH))]
        return bianchi_bach.second_order_report(self.cd, self.hfo, closed, weitzenboeck_seed=self.seed)

    @property
    def skipped(self) -> tuple[str, ...]:
        """The identity families the jet order cannot support."""
        skipped = []
        if self.structure.order < 4:
            skipped.append("second-order identities (cotton-york, bach, weitzenboeck): need order 4")
        if self.structure.order < 3:
            skipped.append("scalar-derivative identity: needs order 3")
        return tuple(skipped)


@dataclass
class PointAnalysis:
    """One sample point of an analysis batch: the point is an index into the
    point axis of every record of `batch`."""

    batch: AnalysisBatch
    index: int


def point_analyses(structure: charts.StructureBatch, seed: int = 42) -> list[PointAnalysis]:
    """One PointAnalysis per point of the structure batch, all sharing one analysis batch."""
    batch = AnalysisBatch(structure, seed)
    return [PointAnalysis(batch, k) for k in range(len(structure.points))]


#: The most points one batch holds. A command runs its points in batches of
#: up to this many, in order: the cost per point falls little past a few
#: dozen points (at order 4 it rises again), while memory grows with the batch.
BATCH_POINTS = 64


def _analyses(specs: list[charts.ChartSpec], config: RunConfig, order: int):
    """(spec, PointAnalysis) for each sample point of each chart, in order.

    The points of all the charts run in batches of up to BATCH_POINTS: the
    structure stage runs once per batch, and the analyses of a batch share
    its later stages. If a batch's structure stage fails, its points are run
    again one at a time, in the same order, through the same functions, each
    a batch of one: the good ones are yielded, and the first bad one ends the
    run with an error naming the chart, the point index and its coordinates.
    """
    points = [(spec, idx, p) for spec in specs for idx, p in enumerate(spec.sample_points(config.points, config.seed))]
    for start in range(0, len(points), BATCH_POINTS):
        block = points[start : start + BATCH_POINTS]
        batches = []
        for spec, _, p in block:
            if not batches or batches[-1][0] is not spec:
                batches.append((spec, []))
            batches[-1][1].append(p)
        try:
            pas = point_analyses(charts.structure_at(batches, order), config.seed)
        except (StructureError, DomainError):
            pas = None
        for k, (spec, idx, p) in enumerate(block):
            if pas is None:
                try:
                    structure = charts.structure_at([(spec, p[None])], order)
                except (StructureError, DomainError) as exc:
                    coords = ", ".join(f"{x:.6g}" for x in p)
                    raise AK4Error(f"chart {spec.name!r}, point {idx} at ({coords}): {exc}") from exc
                [pa] = point_analyses(structure, config.seed)
                yield spec, pa
            else:
                yield spec, pas[k]


def _resolve_chart(name_or_path: str) -> charts.ChartSpec:
    if os.path.sep in name_or_path or name_or_path.endswith(".json") or os.path.exists(name_or_path):
        return charts.load_chart(name_or_path)
    return charts.catalog_chart(name_or_path)


# -- the identity registry ---------------------------------------------------------


# Hypotheses: each predicate bounds a value a pipeline stage computes, at each
# point of a batch of analyses. They are bounds on the geometry, not residual
# tolerances, so --tol-scale leaves them be.


def almost_kahler(batch: AnalysisBatch) -> list[bool]:
    """d Omega = 0."""
    return batch.hfo.is_almost_kahler.tolist()


def j_invariant_ricci(batch: AnalysisBatch) -> list[bool]:
    """Ric^anti = 0."""
    return batch.dr.is_j_invariant_ricci.tolist()


#: The hypotheses of the closed almost Kahler Bach forms: the rows
#: `bach-ak-form` and `bach-ricci-form`, and the points the second-order
#: report forms them at.
CLOSED_BACH = (almost_kahler, j_invariant_ricci)


def second_gray(batch: AnalysisBatch) -> list[bool]:
    """The second Gray condition holds, at the verdict ladder's bound."""
    return [g2 < gray.DEFAULT_VERDICT_TOL for g2 in batch.ladder.g2]


def kahler_nullity(batch: AnalysisBatch) -> list[bool]:
    """a != 0, so the Kahler nullity, the complement of span{a, Ja}, is defined."""
    hfo = batch.hfo
    a_f = tensorops.frame_components(hfo.a.value, hfo.conn.structure.frame)
    return (np.einsum("pi,pi->p", a_f, a_f) > 1e-10).tolist()


def lemma6_triple(batch: AnalysisBatch) -> list[bool]:
    """Ric^anti = 0, W3+ = 0 and W- = 0."""
    return (gray.lemma6_triple(batch.dr) < gray.DEFAULT_VERDICT_TOL).tolist()


@dataclass(frozen=True)
class Identity:
    """One identity of the report and of `ak4 check`.

    `residual(batch)` gives one residual per point of a batch of analyses
    (`point_analyses`), and each predicate in `assumes` one bool per point;
    the residual is read only at points where every predicate holds, and
    evaluated only for a batch with such a point. `group` is the `check`
    name the identity answers to (its own name by default); `check <group>`
    takes the max over the group. Identities with `report=False` run only
    under `check`.
    """

    name: str
    tol: float  # ladder tier, before --tol-scale
    order: int  # lowest jet order that supports the identity
    residual: Callable[[AnalysisBatch], Sequence[float]]
    assumes: tuple[Callable[[AnalysisBatch], Sequence[bool]], ...] = ()
    group: str | None = None
    report: bool = True

    def __post_init__(self):
        if self.group is None:
            object.__setattr__(self, "group", self.name)

    def applies(self, batch: AnalysisBatch, truth: dict | None = None) -> list[bool]:
        """Whether every predicate in `assumes` holds, at each point of the
        batch. `truth` maps each predicate evaluated on the batch to its
        column, so identities that share a hypothesis evaluate it once."""
        truth = {} if truth is None else truth
        holds = [True] * len(batch.structure.points)
        for predicate in self.assumes:
            if predicate not in truth:
                truth[predicate] = predicate(batch)
            holds = [h and p for h, p in zip(holds, truth[predicate])]
        return holds


def _each(stage: str, name: str):
    """A residual column of the batch's record of `stage`."""
    return lambda batch: getattr(getattr(batch, stage), name)


def _second_order(key: str):
    """A residual column of the second-order report; None where a point has
    none (the closed Bach forms where their hypotheses fail)."""
    return lambda batch: batch.sor[key]


def _s_star(batch: AnalysisBatch) -> list[float]:
    return np.abs(batch.dr.s_star - batch.cd.s_value - 0.5 * batch.hfo.nabla_j_sq).tolist()


def _lemma5(batch: AnalysisBatch) -> list[float]:
    rows = []
    for g2, triple in zip(batch.ladder.g2, gray.lemma5_triple(batch.dr).tolist()):
        # equivalence at chart level: both small or both clearly nonzero; a
        # non-finite side ranks worst, on whichever side it is
        worse = max(g2, triple, key=_rank)
        rows.append(triple if g2 < 1e-10 else g2 if triple < 1e-10 else 0.0 if math.isfinite(worse) else worse)
    return rows


def _gamma0_antisymmetry(batch: AnalysisBatch) -> list[float]:
    gamma0 = gray.canonical_ricci_form(batch.dr)
    return np.abs(gamma0 + np.swapaxes(gamma0, 1, 2)).max(axis=(1, 2)).tolist()


def _weitzenboeck(batch: AnalysisBatch) -> list[float]:
    """The worse of the two test fields: Omega and a seeded polynomial 2-form."""
    return [max(omega, field, key=_rank) for omega, field in zip(batch.sor["weitzenboeck omega"], batch.sor["weitzenboeck random"])]


def _mu_formula_gap(gr: gray.GrayReport) -> list[float]:
    return [max(abs(high - formula), abs(low - formula), key=_rank) for formula, low, high in zip(gr.mu_formula, gr.mu_min, gr.mu_max)]


#: Every identity, in report row order.
IDENTITIES = (
    Identity("structure-invariants", TOL_ALGEBRAIC, 2, lambda batch: batch.structure.invariant_residuals.max(axis=1).tolist()),
    Identity("so4-reconstruction", TOL_FIRST_ORDER, 2, _each("dr", "recon_residual")),
    Identity("u2-reassembly", TOL_ALGEBRAIC, 2, _each("dr", "u2_residual")),
    Identity("u2-orthogonality", TOL_ALGEBRAIC, 2, _each("dr", "orthogonality_residual")),
    Identity("kappa", TOL_ALGEBRAIC, 2, _each("dr", "kappa_identity_residual")),
    Identity("star-skew-vs-psi", TOL_ALGEBRAIC, 2, _each("dr", "star_skew_residual")),
    Identity("ric-id", TOL_FIRST_ORDER, 2, lambda batch: riemann.ricci_identity_check(batch.cd)),
    Identity("nabla-j-identity", TOL_FIRST_ORDER, 2, _each("hfo", "identity_residual")),
    Identity("s-star", TOL_FIRST_ORDER, 2, _s_star, (almost_kahler,)),
    Identity("ak-shape (b = -Ja)", TOL_FIRST_ORDER, 2, _each("hfo", "b_plus_ja_norm"), (almost_kahler,)),
    Identity("lee-form-vanishes", TOL_FIRST_ORDER, 2, _each("hfo", "theta_norm"), (almost_kahler,)),
    Identity("prop1", TOL_FIRST_ORDER, 3, lambda batch: gray.prop1_check(batch.cd, batch.dr, batch.hfo), (second_gray,)),
    Identity("lemma6-constancy", TOL_THIRD_ORDER, 2, lambda batch: [high - low for low, high in zip(batch.gr.mu_min, batch.gr.mu_max)], (lemma6_triple,), group="lemma6"),
    Identity("lemma6-mu-formula", TOL_THIRD_ORDER, 2, lambda batch: _mu_formula_gap(batch.gr), (lemma6_triple,), group="lemma6"),
    Identity("bianchi", TOL_THIRD_ORDER, 4, _second_order("delta W = C")),
    Identity("bianchi-half", TOL_THIRD_ORDER, 4, _second_order("delta W+ = C+")),
    Identity("v-split-completeness", TOL_THIRD_ORDER, 4, _second_order("V+ + V- completeness")),
    Identity("bach-symmetric", TOL_FOURTH_ORDER, 4, _second_order("bach symmetric")),
    Identity("bach-traceless", TOL_FOURTH_ORDER, 4, _second_order("bach traceless")),
    Identity("bach-3way (plus)", TOL_FOURTH_ORDER, 4, _second_order("bach direct vs plus"), group="bach-3way"),
    Identity("bach-3way (minus)", TOL_FOURTH_ORDER, 4, _second_order("bach direct vs minus"), group="bach-3way"),
    Identity("weitzenboeck", TOL_FOURTH_ORDER, 4, _weitzenboeck),
    Identity("lemma1-alpha", TOL_THIRD_ORDER, 4, _second_order("alpha formula"), (j_invariant_ricci,)),
    Identity("beta0", TOL_THIRD_ORDER, 4, _second_order("beta formula"), (j_invariant_ricci,)),
    Identity(
        "bach-ak-form",
        TOL_FOURTH_ORDER,
        4,
        _second_order("bach direct vs almost-kahler form"),
        CLOSED_BACH,
        group="bach-3way",
    ),
    Identity(
        "bach-ricci-form",
        TOL_FOURTH_ORDER,
        4,
        _second_order("bach direct vs ricci form"),
        CLOSED_BACH,
        group="bach-3way",
    ),
    Identity("lemma5", TOL_FIRST_ORDER, 2, _lemma5, report=False),
    Identity("prop2i", TOL_FIRST_ORDER, 2, lambda batch: gray.prop2i_residual(batch.hfo, batch.dr), (second_gray, kahler_nullity), report=False),
    Identity("nabla2-omega-shape", TOL_FIRST_ORDER, 2, lambda batch: gray.nabla2_omega_shape_residual(batch.conn), (almost_kahler,), report=False),
    Identity("gamma0-antisymmetry", TOL_ALGEBRAIC, 2, _gamma0_antisymmetry, report=False),
)


#: The identities `report` evaluates.
REPORTED = tuple(i for i in IDENTITIES if i.report)


def _rank(residual: float) -> float:
    """Order of badness of a residual: a non-finite one ranks worst, where a
    bare comparison or max() would pass over a NaN."""
    return residual if math.isfinite(residual) else math.inf


def _select(names, identities: tuple[Identity, ...]) -> tuple[Identity, ...]:
    """The identities whose name or group is one of `names`."""
    return tuple(i for i in identities if i.name in names or i.group in names)


def _columns(batch: AnalysisBatch, identities: tuple[Identity, ...]) -> list[tuple[Identity, list[bool], Sequence[float]]]:
    """(identity, applies, residuals) for each identity that some point of the
    batch satisfies: each residual column and each hypothesis column is
    formed once, for the whole batch."""
    columns, truth = [], {}
    for ident in identities:
        if ident.order <= batch.structure.order:
            applies = ident.applies(batch, truth)
            if any(applies):
                columns.append((ident, applies, ident.residual(batch)))
    return columns


def _identity_rows(batch: AnalysisBatch, tol_scale: float, identities: tuple[Identity, ...] = REPORTED) -> list[list[dict]]:
    """The identity table of each point of a batch: name, residual, tolerance, pass."""
    tables: list[list[dict]] = [[] for _ in batch.structure.points]
    for ident, applies, residuals in _columns(batch, identities):
        tol = ident.tol * tol_scale
        for table, holds, residual in zip(tables, applies, residuals):
            if holds:
                table.append({"name": ident.name, "residual": residual, "tol": tol, "pass": bool(math.isfinite(residual) and residual <= tol)})
    return tables


def _point_document(pa: PointAnalysis, rows: list[dict]) -> dict:
    batch, k = pa.batch, pa.index
    dr, ladder, gr, sor = batch.dr, batch.ladder, batch.gr, batch.sor
    doc = {
        "point": list(batch.structure.points[k]),
        "verdict": ladder.verdict[k],
        "flags": list(ladder.flags[k]),
        "scalars": {
            "s": batch.cd.s_value[k],
            "s_star": dr.s_star[k],
            "kappa": dr.kappa[k],
            "nabla_j_sq": batch.hfo.nabla_j_sq[k],
            "mu_formula": gr.mu_formula[k],
            "mu_min": gr.mu_min[k],
            "mu_max": gr.mu_max[k],
            "psi": dr.psi[k].tolist(),
        },
        "block_norms": dr.block_norms[k],
        "gray": {"g1": ladder.g1[k], "g2": ladder.g2[k], "g3": ladder.g3[k]},
        "wplus_eigenvalues": gr.wplus_eigenvalues[k].tolist(),
        "identities": rows,
        "skipped": list(batch.skipped),
    }
    if sor is not None:
        doc["second_order"] = {name: column[k] for name, column in sor.items() if column[k] is not None}
        # where the closed Bach forms do not apply: the first hypothesis that fails, with the value it bounds
        if not almost_kahler(batch)[k]:
            doc["second_order"]["bach_ak_skipped"] = f"not almost Kahler at this point: |dOmega| = {batch.hfo.d_omega_norm[k]:.3e}"
        elif not j_invariant_ricci(batch)[k]:
            doc["second_order"]["bach_ak_skipped"] = f"Ricci tensor not J-invariant at this point: |Ric^anti| = {dr.ric_anti_norm[k]:.3e}"
    return doc


def _report_identities(checks: tuple[str, ...]) -> tuple[Identity, ...]:
    """The report rows a --checks selection enables (every row by default)."""
    if not checks:
        return REPORTED
    known = {i.name for i in REPORTED} | {i.group for i in REPORTED}
    unknown = [name for name in checks if name not in known]
    if unknown:
        raise AK4Error(f"unknown identity {unknown[0]!r} in --checks; known identities: {', '.join(sorted(known))}")
    return _select(checks, REPORTED)


def run_report(config: RunConfig) -> tuple[dict, int]:
    """Evaluate all modules on sampled points; returns (document, exit_code)."""
    t0 = time.time()
    identities = _report_identities(config.checks)
    spec = _resolve_chart(config.chart)
    point_docs = []
    worst: dict[str, dict] = {}
    verdicts = []
    batch = None
    for idx, (_, pa) in enumerate(_analyses([spec], config, config.order)):
        if pa.batch is not batch:  # the first point of a batch: the batch's tables
            batch, tables = pa.batch, _identity_rows(pa.batch, config.tol_scale, identities)
        rows = tables[pa.index]
        for r in rows:
            w = worst.setdefault(r["name"], {"residual": -1.0, "tol": r["tol"], "pass": True})
            if _rank(r["residual"]) > _rank(w["residual"]):
                w["residual"] = r["residual"]
                w["point_index"] = idx
            w["pass"] = bool(w["pass"] and r["pass"])
        verdicts.append(batch.ladder.verdict[pa.index])
        point_docs.append(_point_document(pa, rows))
    all_pass = all(w["pass"] for w in worst.values())
    doc = {
        "schema": "ak4/1",
        "tool": {"name": "ak4", "version": __version__},
        "chart": charts.chart_to_dict(spec),
        "seed": config.seed,
        "order": config.order,
        "planes": gray.PLANES,
        "tol_scale": config.tol_scale,
        "points": point_docs,
        "aggregate": {
            "identities": worst,
            "verdicts": sorted(set(verdicts)),
            "all_pass": all_pass,
        },
        "timing_s": time.time() - t0,
    }
    return doc, 0 if all_pass else 1


def _json_text(doc: dict) -> str:
    """The report as JSON text: sorted keys, two-space indent, final newline."""
    return json.dumps(doc, indent=2, sort_keys=True) + "\n"


def write_json(doc: dict, path: str) -> None:
    """Write the JSON report to `path`, or through a symlink to its target. A
    device, FIFO or other existing non-regular file is written in place; a
    regular file is replaced atomically by a temp file beside it with its
    permission bits (a new file's are 0o666 less the umask, as open() gives).
    An OSError becomes an AK4Error naming the path."""
    text, target, tmp = _json_text(doc), os.path.realpath(path), None
    if path.endswith(os.sep):  # realpath drops the separator that names a directory: keep it, to fail as open() does
        target += os.sep
    try:
        try:
            mode = os.stat(target).st_mode
        except FileNotFoundError:
            os.umask(umask := os.umask(0))  # reading the umask sets it: set it back
            mode = stat.S_IFREG | (0o666 & ~umask)
        if not stat.S_ISREG(mode):
            with open(target, "w", encoding="utf-8") as fh:
                fh.write(text)
            return
        fd, tmp = tempfile.mkstemp(dir=os.path.dirname(target), suffix=".tmp")
        with os.fdopen(fd, "w", encoding="utf-8") as fh:
            os.fchmod(fd, stat.S_IMODE(mode))
            fh.write(text)
        os.replace(tmp, target)
        tmp = None  # renamed: nothing is left to remove
    except OSError as exc:
        raise AK4Error(f"cannot write the JSON report to {path}: {exc.strerror or exc}") from exc
    finally:
        if tmp is not None and os.path.exists(tmp):
            os.unlink(tmp)


# -- named checks -----------------------------------------------------------------


def _charts_for(config: RunConfig) -> list[charts.ChartSpec]:
    if config.chart == "all":
        return charts.catalog()
    return [_resolve_chart(config.chart)]


def _per_point_check(config: RunConfig, identities: tuple[Identity, ...]) -> list[dict]:
    """Max residual of the applicable identities at each chart point; None where none applies."""
    order = max(config.order, max(i.order for i in identities))
    rows, batch = [], None
    for spec, pa in _analyses(_charts_for(config), config, order):
        if pa.batch is not batch:  # the first point of a batch: the batch's columns
            batch, columns = pa.batch, _columns(pa.batch, identities)
        values = [residuals[pa.index] for _, applies, residuals in columns if applies[pa.index]]
        rows.append({"chart": spec.name, "point": batch.structure.points[pa.index], "residual": float(max(values, key=_rank)) if values else None})
    return rows


def _sandbox_lemma5(n: int, seed: int):
    batch = np.concatenate([sandbox.random_batch(n // 2, seed), sandbox.g2_batch(n // 2, seed)])
    g2 = algebra.gray_residuals(batch)[1]
    blocks = algebra.u2_blocks(algebra.split_operator(algebra.operator_matrix(batch))["wplus"])
    ric_anti = algebra.frobenius(algebra.j_anti_part(algebra.ricci_contraction(batch)))
    triple = np.maximum(ric_anti, np.maximum(algebra.frobenius(blocks["w2"]), algebra.frobenius(blocks["w3"])))
    # either side vanishing while the other does not breaks the equivalence
    forward = triple[(g2 < 1e-12) & (triple > 1e-10)]
    backward = g2[(triple < 1e-12) & (g2 > 1e-10)]
    bad = max(forward.max(initial=0.0), backward.max(initial=0.0))
    return [{"chart": "sandbox", "point": None, "residual": float(bad)}]


def _sandbox_gray_chain(n: int, seed: int):
    batch = np.concatenate([sandbox.g1_batch(n // 2, seed), sandbox.g2_batch(n // 2, seed)])
    g1, g2, g3 = algebra.gray_residuals(batch)
    # g1 = 0 implies g2 = g3 = 0, and g2 = 0 implies g3 = 0
    holds1, holds2 = g1 < 1e-12, g2 < 1e-12
    bad = max(g2[holds1].max(initial=0.0), g3[holds1 | holds2].max(initial=0.0))
    return [{"chart": "sandbox", "point": None, "residual": float(bad)}]


def _sandbox_roundtrip(n: int, seed: int):
    batch = sandbox.random_batch(n, seed)
    m = algebra.operator_matrix(batch)
    tensors = algebra.tensor_from_operator(algebra.join_operator(algebra.split_operator(m)))
    res = float(np.abs(tensors - batch).max())
    return [{"chart": "sandbox", "point": None, "residual": res}]


#: Checks on seeded batches of algebraic curvature tensors, outside the chart
#: pipeline; each takes the batch size and the seed.
SANDBOX_CHECKS = {
    "gray-chain": _sandbox_gray_chain,
    "sandbox-lemma5": _sandbox_lemma5,
    "sandbox-roundtrip": _sandbox_roundtrip,
}
SANDBOX_TOL = 1e-10

#: Every name `ak4 check` accepts: identity names, their groups and the sandbox checks.
CHECK_NAMES = tuple(sorted({i.name for i in IDENTITIES} | {i.group for i in IDENTITIES} | set(SANDBOX_CHECKS)))


def _point_text(point: tuple[float, ...]) -> str:
    """`np.array2string(np.array(point), precision=3)`, byte for byte.

    numpy prints finite coordinates in positional notation unless a non-zero
    |x| is below 1e-4 or from 1e8 up, or two of them differ by more than a
    factor 1000. In that common case each coordinate is correctly rounded to
    3 decimals with its trailing zeros cut (what numpy's shortest-digit
    rounding gives), and the integer and fraction parts are padded to a
    common width. Every other point is left to numpy.
    """
    nonzero = [abs(x) for x in point if x != 0.0]
    if not all(map(math.isfinite, point)) or (nonzero and (max(nonzero) >= 1e8 or min(nonzero) < 1e-4 or max(nonzero) / min(nonzero) > 1000.0)):
        return np.array2string(np.asarray(point), precision=3)
    parts = [f"{x:.3f}".rstrip("0").split(".") for x in point]
    left, right = max(len(i) for i, _ in parts), max(len(f) for _, f in parts)
    return "[" + " ".join(f"{i:>{left}}.{f:<{right}}" for i, f in parts) + "]"


def cmd_check(config: RunConfig, name: str) -> int:
    """Run one named identity; prints the residual table and worst case."""
    if name not in CHECK_NAMES:
        print(f"unknown check {name!r}; available checks:")
        for known in CHECK_NAMES:
            print(f"  {known}")
        return 2
    if name in SANDBOX_CHECKS:
        # each draws max(8 N, 256) tensors of 256 float64 as one array
        most = np.iinfo(np.intp).max // (8 * 256 * 8)
        if config.points > most:
            raise AK4Error(f"--points must be <= {most} for a sandbox check, the most numpy can shape, got {config.points}")
        tol = SANDBOX_TOL * config.tol_scale
        rows = SANDBOX_CHECKS[name](max(config.points * 8, 256), config.seed)
    else:
        identities = _select((name,), IDENTITIES)
        tol = identities[0].tol * config.tol_scale
        rows = _per_point_check(config, identities)
    applicable = [r for r in rows if r["residual"] is not None]
    print(f"check {name}  (tolerance {tol:.1e})")
    worst = None
    for r in rows:
        pt = "" if r["point"] is None else _point_text(r["point"])
        if r["residual"] is None:
            print(f"  {r['chart']:20s} {pt:>44s}  not applicable")
            continue
        mark = "pass" if r["residual"] <= tol else "FAIL"
        print(f"  {r['chart']:20s} {pt:>44s}  {r['residual']:.3e}  {mark}")
        if worst is None or _rank(r["residual"]) > _rank(worst["residual"]):
            worst = r
    if not applicable:
        print("  no applicable chart/point combinations")
        return 0
    ok = worst["residual"] <= tol
    print(f"worst residual {worst['residual']:.3e} on {worst['chart']} -> {'pass' if ok else 'FAIL'}")
    return 0 if ok else 1


def cmd_report(config: RunConfig) -> int:
    doc, code = run_report(config)
    if config.json_path == "-":
        sys.stdout.write(_json_text(doc))
        return code
    if config.json_path:
        write_json(doc, config.json_path)
    agg = doc["aggregate"]
    print(f"chart {doc['chart']['name']}  points={config.points} seed={config.seed} order={config.order}")
    print(f"verdicts: {', '.join(agg['verdicts'])}")
    if not agg["identities"]:
        print("  no applicable identities")
    width = max((len(n) for n in agg["identities"]), default=0)
    for name, w in sorted(agg["identities"].items()):
        mark = "pass" if w["pass"] else "FAIL"
        print(f"  {name:{width}s}  worst {w['residual']:.3e}  (tol {w['tol']:.1e})  {mark}")
    skipped = doc["points"][0].get("skipped", [])
    for s in skipped:
        print(f"  skipped: {s}")
    print(f"overall: {'pass' if agg['all_pass'] else 'FAIL'}")
    return code


def cmd_classify(config: RunConfig) -> int:
    verdicts = []
    for spec, last in _analyses(_charts_for(config), config, config.order):
        ladder, k = last.batch.ladder, last.index
        verdicts.append(ladder.verdict[k])
        if len(verdicts) < config.points:
            continue
        # the chart's last point: its line is printed before a bad point of a later chart ends the run
        names = sorted(set(verdicts))
        verdicts = []
        h = last.batch.hfo
        flags = ", ".join(ladder.flags[k]) if ladder.flags[k] else "-"
        values = (
            f"|nabla J|={np.sqrt(max(h.nabla_j_sq[k], 0)):.3e} |dOmega|={h.d_omega_norm[k]:.3e} "
            f"g1={ladder.g1[k]:.3e} g2={ladder.g2[k]:.3e} g3={ladder.g3[k]:.3e}"
        )
        print(f"{spec.name:22s} {'/'.join(names):18s} [{flags}]  {values}")
    return 0


def cmd_catalog() -> int:
    for spec in charts.catalog():
        print(f"{spec.name:22s} tags: {', '.join(spec.tags)}")
    return 0


def _names(text: str) -> tuple[str, ...]:
    """The names of a comma-separated --checks value; a value that names no
    identity is an error, since an empty selection would mean every row."""
    names = tuple(s.strip() for s in text.split(",") if s.strip())
    if not names:
        raise argparse.ArgumentTypeError(f"{text!r} names no identity")
    return names


@functools.cache
def build_parser() -> argparse.ArgumentParser:
    """The command-line parser, built once per process: parsing leaves it unchanged."""
    parser = argparse.ArgumentParser(prog="ak4", description="Curvature identity checks for almost Hermitian 4-manifold charts")
    sub = parser.add_subparsers(dest="command", required=True)
    # a flag left out is absent from the namespace, so RunConfig's default stands in
    p_report = sub.add_parser("report", help="run every identity on one chart", argument_default=argparse.SUPPRESS)
    p_check = sub.add_parser("check", help="run one named identity", argument_default=argparse.SUPPRESS)
    p_check.add_argument("name", help="identity name; run with an unknown name to list")
    p_classify = sub.add_parser("classify", help="verdict ladder per chart", argument_default=argparse.SUPPRESS)
    sub.add_parser("catalog", help="list built-in charts")

    # each command registers only the flags it reads
    for p in (p_report, p_check, p_classify):
        p.add_argument("--chart", help="catalog name, chart file path, or 'all'")
        p.add_argument("--points", type=int)
        p.add_argument("--seed", type=int)
        p.add_argument("--order", type=int, choices=(2, 3, 4))
    for p in (p_report, p_check):
        p.add_argument("--tol-scale", type=float, help="multiplies the residual tolerances")
    p_report.add_argument("--json", dest="json_path", help="write the JSON report here")
    p_report.add_argument("--checks", type=_names, help="comma-separated identity names to enable (default: all)")
    p_check.set_defaults(chart="all", order=2)  # order raised to the named identity's by _per_point_check
    p_classify.set_defaults(chart="all")
    return parser


def _config_from(args) -> RunConfig:
    """The flags the command was given, over its `set_defaults`; RunConfig's defaults stand in for the rest."""
    return RunConfig(**{k: v for k, v in vars(args).items() if k not in ("command", "name")})


def main(argv=None) -> int:
    args = build_parser().parse_args(argv)
    try:
        if args.command == "catalog":
            return cmd_catalog()
        config = _config_from(args)
        if args.command == "report":
            return cmd_report(config)
        if args.command == "check":
            return cmd_check(config, args.name)
        if args.command == "classify":
            return cmd_classify(config)
    except AK4Error as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    except MemoryError as exc:
        # the sample points, and the (P, ...) arrays of each batch, grow with --points
        detail = f": {exc}" if str(exc) else ""
        print(f"error: --points {getattr(args, 'points', RunConfig.points)} needs more memory than is available{detail}", file=sys.stderr)
        return 2
    return 2


if __name__ == "__main__":
    raise SystemExit(main())
