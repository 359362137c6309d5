"""Chart ingestion, structure validation, adapted frames, and the built-in catalog.

A chart supplies coordinate expressions for a Riemannian metric g and an
orthogonal almost complex structure J on a box in R^4. The fundamental
2-form is always derived from (g, J) through Omega(X, Y) = g(JX, Y), never
read from input, which removes one consistency failure mode.

The adapted orthonormal frame {e1, e2 = J e1, e3, e4 = J e3} is built at
each point, on values, deterministically by normalizing d/dx1, applying J,
and Gram-Schmidt on the first coordinate vector independent of
span{e1, e2}. Orientation is fixed by declaring the 4-form Omega ^ Omega
positive, so Omega is always self-dual. At the point the self-dual basis
is completed by phi = e1^e3 - e2^e4 and J phi, where
(J phi)(X, Y) = -phi(JX, Y). As a jet, phi is any unit section of the
J-anti-invariant 2-forms with that value: the gauge is a free choice (a
rotation of phi by an angle t shifts the connection form xi by dt), and
every gauge-dependent quantity downstream is documented as such.

`structure_at` runs this structure stage once per batch of sample points (a
command's points, up to `cli.BATCH_POINTS` at a time) and returns one
`StructureBatch`: the entry expressions of all the charts are evaluated by
one `exprs.eval_jet` call at the batch's order, each chart on its own
points with its kept `exprs.Program`, into one value table that returns
each chart's entries as one coefficient array with a row per point (a
constant entry too), from which g and J (truncated to J_SIDE_ORDER) are cut
without a per-entry copy; the rest runs on a leading point axis across
charts. The adapted frame and the invariant checks read only values, so
they run on the values of g and J and on order-0 truncations; mu, phi and
J phi are built as jets for the whole batch on their first read. Each
point's jets are the bits a batch of that point alone would give.
"""

from __future__ import annotations

import functools
import json
import math
from collections.abc import Iterable
from dataclasses import dataclass, field

import numpy as np

from . import exprs, jets, tensorops
from .errors import ChartError, DomainError, StructureError
from .exprs import Expr, parse_expr
from .jets import Jet

STRUCTURE_TOL = 1e-9
#: Jet order of J and of the jets built from it (Omega, mu, phi and J phi).
#: No identity differentiates these fields more than twice:
#: nabla Omega feeds a and b, and the `nabla2-omega-shape` row takes d of a;
#: the second covariant derivative of Omega enters the Ricci identity and the
#: `nabla2-omega-shape` row; the Weitzenboeck check takes the Laplacian of
#: Omega; and mu reaches W+- by dual projection, which is differentiated twice
#: on the way to the Bach tensor. Degree-k Taylor coefficients of a result
#: depend only on degree <= k coefficients of its inputs, so building these
#: jets at this order changes no value a reader sees.
J_SIDE_ORDER = 2
_UPPER = [(i, j) for i in range(4) for j in range(i, 4)]
#: For each entry of a 4x4 symmetric matrix in row-major order, the index in
#: _UPPER of the entry or of its mirror.
_SYMMETRIC = [_UPPER.index((min(i, j), max(i, j))) for i in range(4) for j in range(4)]


@dataclass(frozen=True)
class ChartSpec:
    """A coordinate chart: expressions for g and J plus a domain box."""

    name: str
    coords: tuple[str, str, str, str]
    domain: tuple[tuple[float, float], ...]
    g_src: dict[tuple[int, int], str]
    j_src: tuple[tuple[str, ...], ...]
    tags: tuple[str, ...] = ()
    g: dict[tuple[int, int], Expr] = field(repr=False, default=None)
    J: tuple[tuple[Expr, ...], ...] = field(repr=False, default=None)
    #: The domain box as read-only (lo, hi) arrays of the 4 coordinates, built once.
    bounds: tuple[np.ndarray, np.ndarray] = field(repr=False, compare=False, init=False)

    def __post_init__(self):
        bounds = tuple(np.array(side) for side in zip(*self.domain))
        for side in bounds:
            side.flags.writeable = False
        object.__setattr__(self, "bounds", bounds)

    @functools.cached_property
    def program(self) -> exprs.Program:
        """The evaluation program of the chart's entries: the g entries (upper
        triangle in row-major order), then the J entries (row-major),
        compiled on its first use and kept on the chart."""
        return exprs.Program([self.g[ij] for ij in _UPPER] + [e for row in self.J for e in row])

    def sample_points(self, n: int, seed: int) -> np.ndarray:
        """n deterministic uniform samples from the domain box."""
        lo, hi = self.bounds
        return lo + _unit_draws(n, seed) * (hi - lo)


@functools.lru_cache(maxsize=4)
def _unit_draws(n: int, seed: int) -> np.ndarray:
    """The (n, 4) uniform draws in [0, 1) that `sample_points` scales to a
    chart's box, drawn once per count and seed: every chart of a command
    samples the same draws (a read-only array)."""
    draws = np.random.default_rng(np.random.SeedSequence([int(seed), 0x41])).random((n, 4))
    draws.flags.writeable = False
    return draws


def chart_from_dict(data: dict, name_hint: str = "<chart>") -> ChartSpec:
    """Build and validate a ChartSpec from the JSON object layout."""
    if not isinstance(data, dict):
        raise ChartError(f"{name_hint}: a chart must be a JSON object")
    for key in ("name", "coords", "domain", "g", "J"):
        if key not in data:
            raise ChartError(f"{name_hint}: missing top-level key {key!r}")
    if not isinstance(data["name"], str):
        raise ChartError(f"{name_hint}: name must be a string")
    coords = data["coords"]
    if not isinstance(coords, list) or len(coords) != 4 or not all(isinstance(c, str) for c in coords):
        raise ChartError(f"{name_hint}: coords must be a list of exactly 4 names")
    domain = data["domain"]
    number_pairs = isinstance(domain, list) and all(
        isinstance(pair, list) and len(pair) == 2 and all(type(x) in (int, float) for x in pair) for pair in domain
    )
    if not number_pairs or len(domain) != 4:
        raise ChartError(f"{name_hint}: domain must be a list of 4 [low, high] number pairs")
    try:
        domain = tuple((float(lo), float(hi)) for lo, hi in domain)
    except OverflowError as exc:  # an int past the float range
        raise ChartError(f"{name_hint}: domain bound out of float range: {exc}") from exc
    for i, (lo, hi) in enumerate(domain):
        if not lo < hi:
            raise ChartError(f"{name_hint}: degenerate domain interval for coordinate {i + 1}")
        if not math.isfinite(hi - lo):
            raise ChartError(f"{name_hint}: domain interval for coordinate {i + 1} is not of finite width")
    for key in ("g", "J"):
        if not isinstance(data[key], dict) or not all(isinstance(v, str) for v in data[key].values()):
            raise ChartError(f"{name_hint}: {key} must be an object of expression strings")
    tags = data.get("tags", [])
    if not isinstance(tags, list) or not all(isinstance(t, str) for t in tags):
        raise ChartError(f"{name_hint}: tags must be a list of strings")

    g_src: dict[tuple[int, int], str] = {}
    for i, j in _UPPER:
        key = f"{i + 1}{j + 1}"
        if key not in data["g"]:
            raise ChartError(f"{name_hint}: missing metric component g_{key}")
        g_src[(i, j)] = data["g"][key]
    j_src = []
    for i in range(4):
        row = []
        for j in range(4):
            key = f"{i + 1}_{j + 1}"
            if key not in data["J"]:
                raise ChartError(f"{name_hint}: missing structure component J^{i + 1}_{j + 1}")
            row.append(data["J"][key])
        j_src.append(tuple(row))

    def _parse(src: str, what: str) -> Expr:
        try:
            return parse_expr(src)
        except Exception as exc:
            raise ChartError(f"{name_hint}: bad expression for {what}: {exc}") from exc

    g = {(i, j): _parse(g_src[(i, j)], f"g_{i + 1}{j + 1}") for i, j in _UPPER}
    J = tuple(tuple(_parse(j_src[i][j], f"J^{i + 1}_{j + 1}") for j in range(4)) for i in range(4))
    return ChartSpec(
        name=data["name"],
        coords=tuple(coords),
        domain=domain,
        g_src=g_src,
        j_src=tuple(tuple(r) for r in j_src),
        tags=tuple(tags),
        g=g,
        J=J,
    )


def chart_to_dict(spec: ChartSpec) -> dict:
    """Serialize a ChartSpec back to the JSON object layout."""
    return {
        "name": spec.name,
        "coords": list(spec.coords),
        "domain": [list(d) for d in spec.domain],
        "g": {f"{i + 1}{j + 1}": spec.g_src[(i, j)] for i, j in _UPPER},
        "J": {f"{i + 1}_{j + 1}": spec.j_src[i][j] for i in range(4) for j in range(4)},
        "tags": list(spec.tags),
    }


def load_chart(path) -> ChartSpec:
    """Load a chart from a UTF-8 JSON file."""
    try:
        with open(path, encoding="utf-8") as fh:
            data = json.load(fh)
    except OSError as exc:
        raise ChartError(f"cannot read chart file {path}: {exc}") from exc
    except (ValueError, RecursionError) as exc:  # JSONDecodeError and UnicodeDecodeError are ValueErrors
        raise ChartError(f"chart file {path} is not valid JSON: {exc}") from exc
    return chart_from_dict(data, name_hint=str(path))


# -- the built-in catalog ------------------------------------------------------

_J_STANDARD = {"2_1": "1", "1_2": "-1", "4_3": "1", "3_4": "-1"}


def _j_matrix(entries: dict[str, str]) -> dict[str, str]:
    full = {f"{i}_{j}": "0" for i in range(1, 5) for j in range(1, 5)}
    full.update(entries)
    return full


def _diag_metric(g11: str, g22: str, g33: str, g44: str, **off) -> dict[str, str]:
    g = {f"{i}{j}": "0" for i, j in [(1, 2), (1, 3), (1, 4), (2, 3), (2, 4), (3, 4)]}
    g.update({"11": g11, "22": g22, "33": g33, "44": g44})
    g.update(off)
    return g


def _ball_metric(s: str) -> dict[str, str]:
    """The Kahler metric of constant holomorphic curvature in affine
    coordinates: Fubini-Study for s = "+", the complex hyperbolic ball for s = "-"."""
    denom = f"(1 {s} x1^2 {s} x2^2 {s} x3^2 {s} x4^2)^2"
    x14, x23 = "x2*x3 - x1*x4", "x1*x4 - x2*x3"
    if s == "-":
        x14, x23 = x23, x14
    g11, g33 = f"(1 {s} x3^2 {s} x4^2)/{denom}", f"(1 {s} x1^2 {s} x2^2)/{denom}"
    g13 = f"{'-' if s == '+' else ''}(x1*x3 + x2*x4)/{denom}"
    g14, g23 = f"({x14})/{denom}", f"({x23})/{denom}"
    return {"11": g11, "22": g11, "33": g33, "44": g33, "12": "0", "34": "0", "13": g13, "24": g13, "14": g14, "23": g23}


#: The built-in example charts, in catalog order: each is the chart-file
#: object `load_chart` reads, and `catalog_chart` parses it on first use.
_CATALOG = {
    "flat": {
        "name": "flat",
        "coords": ["x1", "x2", "x3", "x4"],
        "domain": [[-1.0, 1.0]] * 4,
        "g": _diag_metric("1", "1", "1", "1"),
        "J": _j_matrix(_J_STANDARD),
        "tags": ["kahler", "einstein", "flat"],
    },
    # A Gaussian bump conformal factor, curvature exp((x1^2+x2^2)/2), times a flat plane.
    "product-surfaces": {
        "name": "product-surfaces",
        "coords": ["x1", "x2", "x3", "x4"],
        "domain": [[-0.9, 0.9]] * 4,
        "g": _diag_metric("(exp(-(x1^2 + x2^2)/4))^2", "(exp(-(x1^2 + x2^2)/4))^2", "(1)^2", "(1)^2"),
        "J": _j_matrix(_J_STANDARD),
        "tags": ["kahler", "non-einstein", "non-constant-scalar"],
    },
    "fubini-study": {
        "name": "fubini-study",
        "coords": ["x1", "x2", "x3", "x4"],
        "domain": [[-0.6, 0.6]] * 4,
        "g": _ball_metric("+"),
        "J": _j_matrix(_J_STANDARD),
        "tags": ["kahler", "einstein", "self-dual", "positive-scalar"],
    },
    "complex-hyperbolic": {
        "name": "complex-hyperbolic",
        "coords": ["x1", "x2", "x3", "x4"],
        "domain": [[-0.45, 0.45]] * 4,
        "g": _ball_metric("-"),
        "J": _j_matrix(_J_STANDARD),
        "tags": ["kahler", "einstein", "negative-scalar"],
    },
    # Orthonormal coframe dx1, dx3 - x1 dx2, dx2, dx4 with the frame rotation
    # J pairing (e1, e2) and (e3, e4); the fundamental 2-form
    # dx1 ^ (dx3 - x1 dx2) + dx2 ^ dx4 is closed while J is non-parallel, so
    # the structure is strictly almost Kahler.
    "kodaira-thurston": {
        "name": "kodaira-thurston",
        "coords": ["x1", "x2", "x3", "x4"],
        "domain": [[-1.0, 1.0]] * 4,
        "g": _diag_metric("1", "1 + x1^2", "1", "1", **{"23": "-x1"}),
        "J": _j_matrix({"3_1": "1", "1_2": "x1", "4_2": "1", "1_3": "-1", "2_4": "-1", "3_4": "-x1"}),
        "tags": ["strictly-almost-kahler", "homogeneous"],
    },
}


def catalog() -> list[ChartSpec]:
    """The built-in example charts."""
    return [catalog_chart(name) for name in _CATALOG]


@functools.cache
def catalog_chart(name: str) -> ChartSpec:
    """The built-in chart of that name, parsed on its first use in the process."""
    if name not in _CATALOG:
        raise ChartError(f"unknown catalog chart {name!r} (known: {', '.join(_CATALOG)})")
    return chart_from_dict(_CATALOG[name], name_hint=name)


# -- structure evaluation ------------------------------------------------------

#: Frame components of the standard complex structure in an adapted frame.
J_FRAME = np.array(
    [
        [0.0, -1.0, 0.0, 0.0],
        [1.0, 0.0, 0.0, 0.0],
        [0.0, 0.0, 0.0, -1.0],
        [0.0, 0.0, 1.0, 0.0],
    ]
)


def _frame_form(a: int, b: int) -> np.ndarray:
    f = np.zeros((4, 4))
    f[a, b] = 1.0
    f[b, a] = -1.0
    return f


#: Frame components of the 2-form basis (Omega, phi, J phi, then the
#: anti-self-dual triple); every element has squared norm 2.
FRAME_FORMS = np.stack(
    [
        _frame_form(0, 1) + _frame_form(2, 3),
        _frame_form(0, 2) - _frame_form(1, 3),
        _frame_form(0, 3) + _frame_form(1, 2),
        _frame_form(0, 1) - _frame_form(2, 3),
        _frame_form(0, 2) + _frame_form(1, 3),
        _frame_form(0, 3) - _frame_form(1, 2),
    ]
)


@dataclass
class StructureBatch:
    """All structure jets of a batch of chart points, on a leading point axis,
    plus the adapted frames.

    frame[p, a] are the coordinate components of the frame vector e_a at
    point p. phi and jphi are coordinate 2-form jets; with omega their frame
    components are the first three rows of FRAME_FORMS. A point is an index
    into the point axis of every field.

    g carries the requested `order` and g_inv one order less (at least 0):
    every reader contracts g_inv with a derivative of g, such as a
    Christoffel symbol, a curvature tensor or a covariant derivative, which
    has at most that order. J, omega, mu, phi and jphi carry
    min(order, J_SIDE_ORDER), the most any identity differentiates them.
    frame is a value, the adapted frame at each point, and
    invariant_residuals holds one row per point, one column per INVARIANTS
    entry.

    `structure_at` forms g, g_inv, J, omega, the frame, the invariant
    residuals and the values phi0 = e1^e3 - e2^e4 and jphi0 of the
    self-dual basis, which the self-duality checks read and from which the
    first-order stage builds a and b (read only as values). mu, phi and
    jphi are cached properties, built as jets for the whole batch on their
    first read. mu is the volume form of g truncated to J's order under the
    orientation (the sign of det frame that makes Omega self-dual). phi is
    any unit section of the J-anti-invariant 2-forms with value phi0: the
    gauge is free, and a rotation by an angle t only shifts the connection
    form xi of the `nabla2-omega-shape` row, the one reader that
    differentiates phi, by dt. It is the J-anti-invariant part
    A(beta) = (beta - beta(J., J.))/2 of the constant 2-form beta = phi0,
    scaled to |phi|^2 = 2 with g^-1 at J's order, so that no frame is built
    as a jet.

    Truncated Taylor arithmetic never lets a higher-degree input coefficient
    reach a lower-degree output coefficient, so J, omega and mu equal the
    leading coefficients of the same jets built at the requested order bit
    for bit. phi and jphi do to first order, the most any reader uses; in
    degree 2 an order-4 build may round differently, because BLAS sums a
    contraction over a padded pair axis whose length depends on the order.
    The values of phi and jphi are phi0 and jphi0 bit for bit. Each point
    holds the bits of the same point in a one-point batch.
    """

    points: list[tuple[float, float, float, float]]
    order: int
    g: Jet
    g_inv: Jet
    J: Jet
    omega: Jet
    frame: np.ndarray
    invariant_residuals: np.ndarray
    orientation: np.ndarray
    phi0: Jet
    jphi0: Jet

    @functools.cached_property
    def mu(self) -> Jet:
        """The volume form of g under the orientation that makes Omega self-dual."""
        return tensorops.volume_form(self.g.truncate(self.J.order), self.orientation)

    @functools.cached_property
    def phi(self) -> Jet:
        """The unit J-anti-invariant 2-form A(phi0) / |A(phi0)| * sqrt(2), whose value is phi0."""
        return _anti_invariant_phi(self.phi0, self.J, tensorops.matrix_inverse(self.g.truncate(self.J.order)))

    @functools.cached_property
    def jphi(self) -> Jet:
        return _jphi(self.J, self.phi)


#: The pointwise invariants `structure_at` checks, in the order it checks
#: them. The first is min(0, smallest eigenvalue of g) negated; each other
#: one is the largest |entry| of a difference that vanishes when it holds.
INVARIANTS = (
    "g positive definite",
    "J o J = -Id",
    "g(J.,J.) = g",
    "Omega = g(J.,.)",
    "frame orthonormal",
    "e2 = J e1",
    "e4 = J e3",
    "Omega = e1^e2 + e3^e4",
    "*Omega = Omega",
    "*phi = phi",
    "*Jphi = Jphi",
)


def _check(diffs: np.ndarray, residuals: np.ndarray, first: int, stop: int) -> None:
    """Fill residuals[:, first:stop] from diffs[:, first:stop] and raise
    StructureError for the first point, and within it the first invariant, that fails."""
    block = residuals[:, first:stop]
    block[...] = np.abs(diffs[:, first:stop]).max(axis=(2, 3))
    bad = ~(block <= STRUCTURE_TOL)  # NaN fails too
    if bad.any():
        k, i = np.argwhere(bad)[0]
        raise StructureError(INVARIANTS[first + i], float(block[k, i]))


def _check_finite(m: Jet, entry: str) -> None:
    """Raise DomainError naming the first entry of the 4x4 jet matrices m (`entry`
    formats its 1-based row and column) whose value or a Taylor coefficient is not finite."""
    if not np.isfinite(m.c).all():
        where = tuple(np.argwhere(~np.isfinite(m.c))[0])
        i, j, k = where[-3:]
        what = " =" if k == 0 else "'s Taylor coefficient"
        raise DomainError(f"chart entry {entry.format(i + 1, j + 1)}{what} {float(m.c[where])!r} is not finite")


def structure_at(batches: Iterable[tuple[ChartSpec, np.ndarray]], order: int = 4) -> StructureBatch | None:
    """Evaluate all structure jets at every point of `batches` and validate
    the pointwise invariants; one StructureBatch of the points, in order
    (None when there are none).

    `batches` is a sequence of (spec, points) pairs with points of shape
    (N, 4). The entry expressions of every chart are evaluated together, by
    one `exprs.eval_jet` call at `order` on the charts' programs (see
    `ChartSpec.program`): subexpressions shared between a chart's entries,
    such as a common denominator, are evaluated once. The call returns one
    (N, entries, ncoef) array per chart; stacked on the point axis, g is
    gathered from its upper-triangle columns through `_SYMMETRIC` and J is
    a view of its columns truncated to min(order, J_SIDE_ORDER): the bits
    of J evaluated at that order (see `jets`). Everything after that runs
    once on the points of all charts together, along a leading point axis:
    g^-1 and Omega as jets, then the adapted frame (`_adapted_frame`, a few
    batched matmuls on the values of g and J), the coframe, phi0 and the
    invariant checks on values. mu and J phi0 come from the order-0
    truncations of g and J through `tensorops.volume_form` and `_jphi`, and
    the self-duality checks contract the star operator
    (`tensorops.star_operator`) once with Omega, phi0 and J phi0 stacked on
    a tensor axis. mu, phi and J phi are built as jets on their first read
    (see StructureBatch). Each point holds, bit for bit, what a batch of
    that point alone gives.

    Raises ChartError if a point lies outside its chart's domain box, and for
    the first bad point of the batch DomainError naming a non-finite g or J
    entry, or StructureError naming the violated invariant; in a one-point
    batch that is exactly what is wrong at the point.
    """
    batches = [(spec, np.asarray(pts, dtype=float).reshape(-1, 4)) for spec, pts in batches]
    for spec, pts in batches:
        lo, hi = spec.bounds
        outside = ~((lo <= pts) & (pts <= hi)).all(axis=1)  # NaN is outside too
        if outside.any():
            raise ChartError(f"point {tuple(pts[np.argmax(outside)].tolist())} outside domain of chart {spec.name!r}")
    if not 0 <= order <= jets.MAX_ORDER:
        raise ChartError(f"jet order must be in 0..{jets.MAX_ORDER}, got {order}")
    points = [tuple(p) for _, pts in batches for p in pts.tolist()]
    n_points = len(points)
    if not n_points:
        return None

    with np.errstate(all="ignore"):  # _check_finite reports an overflow by entry
        gj = np.concatenate(exprs.eval_jet([spec.program for spec, _ in batches], [pts for _, pts in batches], order))
    g = Jet._of(order, gj[:, _SYMMETRIC].reshape(n_points, 4, 4, -1))
    J = Jet._of(order, gj[:, len(_UPPER) :].reshape(n_points, 4, 4, -1)).truncate(min(order, J_SIDE_ORDER))
    _check_finite(g, "g_{}{}")
    _check_finite(J, "J^{}_{}")

    residuals = np.empty((n_points, len(INVARIANTS)))
    diffs = np.zeros((n_points, len(INVARIANTS), 4, 4))
    g0, j0 = g.value, J.value
    min_eig = np.linalg.eigvalsh(g0).min(axis=1)
    # 0.0 - x, unlike -x, turns a zero eigenvalue of either sign into +0.0
    residuals[:, 0] = np.maximum(0.0, 0.0 - min_eig)
    if (min_eig <= 0.0).any():
        raise StructureError(INVARIANTS[0], float(residuals[np.argmax(min_eig <= 0.0), 0]))
    diffs[:, 1] = j0 @ j0 + np.eye(4)
    diffs[:, 2] = j0.transpose(0, 2, 1) @ g0 @ j0 - g0
    _check(diffs, residuals, 1, 3)

    # every reader contracts g^-1 with at least one derivative of g
    g_inv = tensorops.matrix_inverse(g.truncate(max(order - 1, 0)))
    # Omega_ij = g(J d_i, d_j) = J^k_i g_kj
    omega = jets.contract(J, g, 0, 0)
    diffs[:, 3] = omega.value + omega.value.transpose(0, 2, 1)
    _check(diffs, residuals, 3, 4)

    frame = _adapted_frame(g0, j0)
    coframe = frame @ g0  # (e^a)_i = g_ij E_a^j
    diffs[:, 4] = coframe @ frame.transpose(0, 2, 1) - np.eye(4)
    diffs[:, 5, 0] = (j0 @ frame[:, 0, :, None])[..., 0] - frame[:, 1]
    diffs[:, 6, 0] = (j0 @ frame[:, 2, :, None])[..., 0] - frame[:, 3]
    _check(diffs, residuals, 4, 7)

    orientation = np.sign(np.linalg.det(frame))
    outer = coframe[:, :, None, :, None] * coframe[:, None, :, None, :]
    wedge = outer - outer.transpose(0, 1, 2, 4, 3)  # [:, a, b] = e^a ^ e^b
    # Omega must coincide with e1^e2 + e3^e4 in the constructed coframe.
    diffs[:, 7] = wedge[:, 0, 1] + wedge[:, 2, 3] - omega.value
    # Self-duality of the positive basis under the declared orientation: the
    # star operator contracted once with Omega, phi and J phi stacked on a
    # tensor axis, (P, 3, 4, 4)
    phi0 = Jet._of(0, (wedge[:, 0, 2] - wedge[:, 1, 3])[..., None])
    jphi0 = _jphi(J.truncate(0), phi0)
    forms = Jet._of(0, np.stack([omega.c[..., :1], phi0.c, jphi0.c], axis=1))
    star = tensorops.star_operator(tensorops.volume_form(g.truncate(0), orientation), g_inv.truncate(0))
    starred = jets.contract(star, forms, (2, 3), (1, 2))
    diffs[:, 8:11] = jets.moveaxis(starred, 2, 0).value - forms.value
    _check(diffs, residuals, 7, 11)
    return StructureBatch(points, order, g, g_inv, J, omega, frame, residuals, orientation, phi0, jphi0)


def _jphi(J: Jet, phi: Jet) -> Jet:
    """(J phi)_ij = -phi(J d_i, d_j)."""
    return -jets.contract(J, phi, 0, 0)


def _anti_invariant_phi(phi0: Jet, J: Jet, g_inv: Jet) -> Jet:
    """The J-anti-invariant part A(beta) = (beta - beta(J., J.))/2 of the
    constant 2-form beta = phi0, scaled to |phi|^2 = 2, as a jet at J's
    order; g_inv is g^-1 at that order. Its value is phi0 itself, which
    A(phi0) equals up to rounding, since phi0 is a unit anti-invariant form."""
    beta = Jet.constant(phi0.value, J.order)
    beta_jj = jets.contract(jets.contract(J, beta, 0, 0), J, 1, 0)  # J^k_i beta_kl J^l_j
    a = 0.5 * (beta - beta_jj)
    c = (a * jets.sqrt(2.0 / tensorops.form_inner(a, a, g_inv))[:, None, None]).c
    c[..., 0] = phi0.value
    return Jet._of(J.order, c)


def _adapted_frame(g: np.ndarray, J: np.ndarray) -> np.ndarray:
    """Deterministic adapted frames {e1, Je1, e3, Je3} at each point of the
    (P, 4, 4) values g and J: frame[p, a] holds the coordinate components of
    e_a at point p.

    e1 normalizes d_1. e3 normalizes the first coordinate vector d_m,
    m = 2, 3, 4, left independent of span{e1, e2} by Gram-Schmidt: one that
    keeps more than 1e-10 of its squared length g(d_m, d_m) outside the
    span, a bound that holds at any scale of g. Each point takes its own m.
    The three candidates of every point are the rows of one (P, 3, 4) array,
    projected by batched matmuls.
    """
    n = len(g)
    e1 = np.zeros((n, 4))
    e1[:, 0] = 1.0 / np.sqrt(g[:, 0, 0])
    e2 = (J @ e1[..., None])[..., 0]
    cand = np.tile(np.eye(4)[1:], (n, 1, 1))
    for e in (e1, e2):
        cand = cand - (cand @ g @ e[..., None]) * e[:, None, :]
    norm2 = ((cand @ g) * cand).sum(axis=2)
    served = norm2 > 1e-10 * g[:, (1, 2, 3), (1, 2, 3)]
    if not served.any(axis=1).all():
        raise StructureError("frame construction (no independent coordinate vector)", 0.0)
    rows, pick = np.arange(n), served.argmax(axis=1)  # the first m that serves each point
    e3 = cand[rows, pick] / np.sqrt(norm2[rows, pick])[:, None]
    e4 = (J @ e3[..., None])[..., 0]
    return np.stack([e1, e2, e3, e4], axis=1)
