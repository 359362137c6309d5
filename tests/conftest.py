from __future__ import annotations

from types import SimpleNamespace

import numpy as np
import pytest

from ak4 import charts, cli, exprs, jets, riemann
from ak4.cli import PointAnalysis
from ak4.jets import Jet

#: Points per chart for the full order-4 analyses shared across the suite.
N_FULL = 3
FULL_SEED = 42

CATALOG_NAMES = ("flat", "product-surfaces", "fubini-study", "complex-hyperbolic", "kodaira-thurston")
KAHLER_NAMES = ("flat", "product-surfaces", "fubini-study", "complex-hyperbolic")
EINSTEIN_NAMES = ("flat", "fubini-study", "complex-hyperbolic")


def sphere_factor(curvature: float = 1.0) -> str:
    """Conformal factor of a round 2-sphere of the given curvature."""
    if curvature <= 0:
        raise ValueError("sphere factor needs positive curvature")
    r2 = 1.0 / curvature
    return f"(2*{r2!r})/({r2!r} + x1^2 + x2^2)"


def hyperbolic_factor(curvature: float = -1.0) -> str:
    """Conformal factor of a hyperbolic disc factor in coordinates x3, x4."""
    if curvature >= 0:
        raise ValueError("hyperbolic factor needs negative curvature")
    r2 = -1.0 / curvature
    return f"(2*{r2!r})/({r2!r} - x3^2 - x4^2)"


def _standard_j() -> dict[str, str]:
    """The chart-file J entries of the standard complex structure."""
    j = {f"{i}_{k}": "0" for i in range(1, 5) for k in range(1, 5)}
    j.update({"2_1": "1", "1_2": "-1", "4_3": "1", "3_4": "-1"})
    return j


def half_bad_chart() -> dict:
    """A chart-file object with g = (x1 + 1/2)(dx1^2 + dx2^2) + dx3^2 + dx4^2
    on [-1, 1]^4 and the standard J: g is indefinite where x1 < -1/2, which
    at `--points 6 --seed 3` are points 3 and 5."""
    g = {key: "0" for key in ("12", "13", "14", "23", "24", "34")}
    g.update({"11": "x1 + 0.5", "22": "x1 + 0.5", "33": "1", "44": "1"})
    return {"name": "half-bad", "coords": ["x1", "x2", "x3", "x4"], "domain": [[-1.0, 1.0]] * 4, "g": g, "J": _standard_j()}


def rotated_j_chart(angle: str = "x1", x1_range: tuple[float, float] = (-1.0, 1.0)) -> charts.ChartSpec:
    """The flat metric with the standard J rotated by `angle` (x1 by
    default) in the (x2, x3) plane: J d1 = cos(angle) d2 + sin(angle) d3, on
    `x1_range` x [-1, 1]^3. For angle x1 the adapted frame takes e3 from d3
    (m = 2) at x1 = 0 and from d2 (m = 1) at x1 != 0."""
    c, s = f"cos({angle})", f"sin({angle})"
    j = {f"{i}_{k}": "0" for i in range(1, 5) for k in range(1, 5)}
    j.update({"1_2": f"-{c}", "1_3": f"-{s}", "2_1": c, "2_4": s})
    j.update({"3_1": s, "3_4": f"-{c}", "4_2": f"-{s}", "4_3": c})
    g = {key: "0" for key in ("12", "13", "14", "23", "24", "34")}
    g.update({"11": "1", "22": "1", "33": "1", "44": "1"})
    domain = [list(x1_range)] + [[-1.0, 1.0]] * 3
    data = {"name": "rotated-j", "coords": ["x1", "x2", "x3", "x4"], "domain": domain, "g": g, "J": j}
    return charts.chart_from_dict(data, name_hint="rotated-j")


def product_surfaces(f1: str, f2: str, name: str, domain=((-0.9, 0.9),) * 4) -> charts.ChartSpec:
    """Product of two conformally flat surface factors.

    g = f1(x1,x2)^2 (dx1^2 + dx2^2) + f2(x3,x4)^2 (dx3^2 + dx4^2) with the
    product complex structure. Kahler for any factors; Einstein only for
    matched constant factor curvatures.
    """
    g = {key: "0" for key in ("12", "13", "14", "23", "24", "34")}
    g.update({"11": f"({f1})^2", "22": f"({f1})^2", "33": f"({f2})^2", "44": f"({f2})^2"})
    data = {"name": name, "coords": ["x1", "x2", "x3", "x4"], "domain": [list(d) for d in domain], "g": g, "J": _standard_j(), "tags": ["kahler"]}
    return charts.chart_from_dict(data, name_hint=name)


def ricci_anti_chart() -> charts.ChartSpec:
    """Hermitian (integrable, non-Kahler) chart whose Ricci tensor is not
    J-invariant: a warped product with the factor depending on a base
    coordinate. Violates the hypotheses of the J-invariant-Ricci lemmas."""
    return charts.chart_from_dict(
        {
            "name": "ricci-anti",
            "coords": ["x1", "x2", "x3", "x4"],
            "domain": [[-0.8, 0.8]] * 4,
            "g": {
                "11": "1",
                "22": "1",
                "33": "(1 + x1^2/2)^2",
                "44": "(1 + x1^2/2)^2",
                "12": "0",
                "13": "0",
                "14": "0",
                "23": "0",
                "24": "0",
                "34": "0",
            },
            "J": _standard_j(),
            "tags": ["hermitian", "ricci-not-j-invariant"],
        },
        name_hint="ricci-anti",
    )


@pytest.fixture(scope="session")
def catalog_specs() -> dict[str, charts.ChartSpec]:
    return {spec.name: spec for spec in charts.catalog()}


@pytest.fixture(scope="session")
def analyses(catalog_specs) -> dict[str, list[PointAnalysis]]:
    """Full order-4 analyses at N_FULL seeded points per catalog chart, each
    point a batch of its own."""
    out: dict[str, list[PointAnalysis]] = {}
    for name, spec in catalog_specs.items():
        out[name] = [point_analysis(spec, p, 4, seed=FULL_SEED) for p in spec.sample_points(N_FULL, FULL_SEED)]
    return out


@pytest.fixture(scope="session")
def ricci_anti_analysis() -> PointAnalysis:
    spec = ricci_anti_chart()
    p = spec.sample_points(1, FULL_SEED)[0]
    return point_analysis(spec, p, order=4, seed=FULL_SEED)


def stack(js) -> Jet:
    """Stack jets along a new first axis, at the lowest of their orders."""
    order = min(j.order for j in js)
    return Jet(order, np.stack([j.c[..., : jets.NCOEF[order]] for j in js]))


def expr_jet(e: exprs.Expr, p, order: int) -> Jet:
    """The jet of one expression at one point (4 coordinates) or at an array
    of points of shape (..., 4), whose leading axes it keeps: a program of
    one root on the points as one batch."""
    p = np.asarray(p, dtype=float)
    [c] = exprs.eval_jet([exprs.Program([e])], [p.reshape(-1, 4)], order)
    return Jet(order, c.reshape(p.shape[:-1] + c.shape[-1:]))


def structure_batch(spec: charts.ChartSpec, p, order: int = 4) -> charts.StructureBatch:
    """The structure of `spec` at one point, a batch of one."""
    return charts.structure_at([(spec, [p])], order)


#: The jets of a `charts.StructureBatch`, each with its point axis.
STRUCTURE_JETS = ("g", "g_inv", "J", "omega", "mu", "phi", "jphi")


def point_fields(structure: charts.StructureBatch, k: int) -> SimpleNamespace:
    """Every field of point k of a structure batch, its mu, phi and J phi
    read too, and its invariant residuals by name."""
    residuals = dict(zip(charts.INVARIANTS, structure.invariant_residuals[k].tolist()))
    jets_at = {name: getattr(structure, name)[k] for name in STRUCTURE_JETS}
    return SimpleNamespace(point=structure.points[k], order=structure.order, frame=structure.frame[k], invariant_residuals=residuals, **jets_at)


def points_of(structure: charts.StructureBatch) -> list[SimpleNamespace]:
    """`point_fields` of every point of the batch, in order."""
    return [point_fields(structure, k) for k in range(len(structure.points))]


def structure_point(spec: charts.ChartSpec, p, order: int = 4) -> SimpleNamespace:
    """`point_fields` of `spec` at one point, from a batch of one."""
    return point_fields(structure_batch(spec, p, order), 0)


def point_analysis(spec: charts.ChartSpec, p, order: int = 4, **kwargs) -> PointAnalysis:
    """The pipeline of `spec` at one point, a batch of one; kwargs go to
    `cli.point_analyses`."""
    [pa] = cli.point_analyses(structure_batch(spec, p, order), **kwargs)
    return pa


class Entries:
    """The entries of a batch record at one point, as attributes:
    `Entries(batch.dr, k).kappa` is `batch.dr.kappa[k]`."""

    def __init__(self, record, index: int):
        self._record, self._index = record, index

    def __getattr__(self, name: str):
        return getattr(self._record, name)[self._index]


def at(pa: PointAnalysis, stage: str) -> Entries:
    """The entries of the analysis batch's record of `stage` ("structure",
    "conn", "cd", "hfo", "dr", "ladder" or "gr") at the point of `pa`."""
    return Entries(getattr(pa.batch, stage), pa.index)


def second_order_residuals(pa: PointAnalysis) -> dict[str, float | None]:
    """The second-order residuals at the point of `pa`, by name; None for a
    closed Bach form whose hypotheses fail there."""
    return {name: column[pa.index] for name, column in pa.batch.sor.items()}


def divergence(conn: riemann.ConnectionBatch, t: Jet, slot: int = 0, k: int = 0) -> Jet:
    """`riemann.divergence` of t, a tensor of point k of `conn`, on a batch of that point alone."""
    return riemann.divergence(conn.structure.g_inv[k : k + 1], conn.gamma[k : k + 1], t[None], slot)[0]


def identity(name: str) -> cli.Identity:
    """The registry row called `name`."""
    return next(i for i in cli.IDENTITIES if i.name == name)


def applies_at(ident: cli.Identity, pa: PointAnalysis) -> bool:
    """Whether `ident`'s hypotheses hold at the point of `pa`."""
    return ident.applies(pa.batch)[pa.index]


def residual_at(ident: cli.Identity, pa: PointAnalysis) -> float:
    """`ident`'s residual at the point of `pa`, from its batch's column."""
    return ident.residual(pa.batch)[pa.index]


def all_points(analyses) -> list[tuple[str, PointAnalysis]]:
    return [(name, pa) for name, rows in analyses.items() for pa in rows]
