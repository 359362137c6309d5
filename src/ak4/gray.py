"""Gray curvature conditions, totally-real sectional curvature, the Ricci
normal form of the reversed structure, the shape of the commuted second
derivative of Omega, and the canonical-connection Ricci form.

The three Gray identities are evaluated as max-norm residuals over all
frame index tuples. The classification ladder turns them into verdicts:
KAHLER when nabla J vanishes, AK-G1/AK-G2/AK-G3 for almost Kahler
structures satisfying the corresponding identity, AK for merely almost
Kahler, ALMOST-HERMITIAN otherwise. `classify` builds that ladder on its own,
so `ak4 classify`, which prints only the ladder, samples no Lagrangian
plane; `gray_report` holds the plane statistics and the W+ spectrum that
`report` adds. Both, and `prop1_check`, take the stage records of a batch
of points and run once on its point axis, with the bits of a batch of one;
each returns one record of the batch, or a list with one entry per point.

Totally-real (Lagrangian) planes are sampled deterministically, PLANES of
them per seed: a random unit vector X, then a unit Y from the orthogonal
complement of span{X, JX}, enforced by explicit projection rather than
rejection, so the sampling has no bias near J-invariant planes. One einsum
over the whole batch gives every point's sectional curvature on every
plane, with the bits of the same einsum on one point and one plane. It
allocates little beyond its (P, PLANES) result, so it runs on the whole
batch, not on curvature slices.
"""

from __future__ import annotations

import functools
from dataclasses import dataclass

import numpy as np

from . import algebra, jets, riemann, tensorops
from .charts import J_FRAME
from .decomp import DecompBatch
from .jets import Jet
from .riemann import ConnectionBatch, CurvatureBatch, FirstOrderBatch

DEFAULT_VERDICT_TOL = 1e-7
#: The verdicts of the class ladder, finest first.
LADDER = ("KAHLER", "AK-G1", "AK-G2", "AK-G3", "AK", "ALMOST-HERMITIAN")
#: The seeded Lagrangian planes `gray_report` samples at each point.
PLANES = 64


@dataclass
class GrayLadder:
    """The three Gray residuals and the class ladder's verdict and flags, one
    entry per point of a batch."""

    g1: list[float]
    g2: list[float]
    g3: list[float]
    verdict: list[str]
    flags: list[tuple[str, ...]]


@dataclass
class GrayReport:
    """Lagrangian sectional curvature statistics and the W+ spectrum, one
    entry per point of a batch."""

    mu_formula: list[float]  # (2s - kappa)/24
    mu_min: list[float]
    mu_max: list[float]
    wplus_eigenvalues: np.ndarray


def lemma5_triple(dr: DecompBatch) -> np.ndarray:
    """The largest of |Ric^anti|, |W2+| and |W3+| at each point: the side of the
    equivalence (second Gray identity <-> Ric J-invariant, W2+ = 0, W3+ = 0)
    opposite g2."""
    return np.maximum(dr.ric_anti_norm, np.maximum(algebra.frobenius(dr.w2), algebra.frobenius(dr.w3)))


def lemma6_triple(dr: DecompBatch) -> np.ndarray:
    """The largest of |Ric^anti|, |W3+| and |W-| at each point: Lemma 6 assumes all three vanish."""
    return np.maximum(dr.ric_anti_norm, np.maximum(algebra.frobenius(dr.w3), algebra.frobenius(dr.wminus)))


def star_scalar_jet(cd: CurvatureBatch) -> Jet:
    """The star-scalar curvature as a first-order jet (trace of -R(Omega)(J., .)),
    with a point axis.

    First order is all `prop1_check` differentiates, so every input enters
    truncated to it."""
    structure = cd.conn.structure
    ginv = structure.g_inv.truncate(1)
    r_omega = tensorops.form_inner(cd.R.truncate(1), structure.omega.truncate(1), ginv, (2, 3))
    ric_star = -jets.contract(structure.J.truncate(1), r_omega, 0, 0)  # -J^k_i (R Omega)_kj
    return jets.contract(ginv, ric_star, (0, 1), (0, 1))


def prop1_check(cd: CurvatureBatch, dr: DecompBatch, hfo: FirstOrderBatch) -> list[float]:
    """Residual of d(s - s*) - kappa theta = 4 Ric0(theta) at each point, which
    holds under the second Gray condition.

    On almost Kahler points theta = 0, so the residual is |d(s* - s)|, the
    pointwise constancy of |nabla J|^2.
    """
    if cd.conn.structure.order < 3:
        raise jets.JetOrderError("the first-derivative scalar identity needs jet order >= 3")
    diff = cd.s - star_scalar_jet(cd)
    d_diff = tensorops.frame_components(jets.partials(diff).value, cd.frame)
    theta_f = tensorops.frame_components(hfo.theta.value, cd.frame)
    lhs = d_diff - dr.kappa[:, None] * theta_f
    rhs = (4.0 * dr.ric0 @ theta_f[:, :, None])[:, :, 0]
    return np.abs(lhs - rhs).max(axis=1).tolist()


@functools.lru_cache(maxsize=8)
def _lagrangian_planes(seed: int) -> tuple[np.ndarray, np.ndarray]:
    """The unit frame vectors (X, Y) of PLANES seeded Lagrangian planes,
    drawn once per seed: read-only (4, PLANES) arrays, one plane per column."""
    rng = np.random.default_rng(np.random.SeedSequence([int(seed), 0x7A]))
    # one block of draws: plane k takes X from row (k, 0) and Y from row (k, 1)
    draws = rng.standard_normal((PLANES, 2, 4))
    x = draws[:, 0] / np.sqrt(_row_dot(draws[:, 0], draws[:, 0]))[:, None]
    jx = x @ J_FRAME.T
    y = _lagrangian_part(draws[:, 1], x, jx)
    norm = np.sqrt(_row_dot(y, y))
    for k in np.flatnonzero(norm < 1e-8):  # essentially impossible with continuous sampling
        while norm[k] < 1e-8:
            y[k] = _lagrangian_part(rng.standard_normal((1, 4)), x[k : k + 1], jx[k : k + 1])[0]
            norm[k] = np.linalg.norm(y[k])
    y /= norm[:, None]
    x, y = np.ascontiguousarray(x.T), np.ascontiguousarray(y.T)
    x.flags.writeable = y.flags.writeable = False
    return x, y


def _row_dot(a: np.ndarray, b: np.ndarray) -> np.ndarray:
    """Dot product of each row pair, bit-identical to `a[k] @ b[k]` (einsum and sum are not)."""
    return (a[:, None, :] @ b[:, :, None])[:, 0, 0]


def _lagrangian_part(y: np.ndarray, x: np.ndarray, jx: np.ndarray) -> np.ndarray:
    """Each row of y minus its components along the unit rows of x and jx."""
    return y - (_row_dot(y, x)[:, None] * x + _row_dot(y, jx)[:, None] * jx)


def prop2i_residual(hfo: FirstOrderBatch, dr: DecompBatch) -> list[float]:
    """Residual of the traceless-Ricci normal form Ric0 = (kappa/4)(-g|_D + g|_Dperp)
    at each point, where D, the Kahler nullity, is the orthogonal complement
    of span{a, Ja}.

    The normal form assumes the second Gray condition, and D is defined only
    where a does not vanish; both are left to the caller. Where a = 0 the
    residual is a number with no meaning, computed without a warning.
    """
    a_f = tensorops.frame_components(hfo.a.value, hfo.conn.structure.frame)
    norm = np.sqrt(_row_dot(a_f, a_f))  # each point's np.linalg.norm, bit for bit
    a_f = a_f / np.where(norm > 0.0, norm, 1.0)[:, None]
    ja_f = (J_FRAME @ a_f[:, :, None])[:, :, 0]
    g_perp = a_f[:, :, None] * a_f[:, None, :] + ja_f[:, :, None] * ja_f[:, None, :]
    kappa = dr.kappa[:, None, None]
    prop2i = dr.ric0 - (kappa / 4.0) * (-(np.eye(4) - g_perp) + g_perp)
    return np.abs(prop2i).max(axis=(1, 2)).tolist()


def nabla2_omega_shape_residual(conn: ConnectionBatch) -> list[float]:
    """Residual of the shape of the commuted second derivative of Omega at
    each point of the batch, where it holds on almost Kahler points:

        nabla^2_{m,n} Omega - nabla^2_{n,m} Omega
            = (da - Ja ^ xi)_mn phi - (d(Ja) + a ^ xi)_mn J phi,

    where xi is the connection 1-form of the phi gauge,
    nabla phi = -a (x) Omega + xi (x) J phi.
    """
    structure = conn.structure
    phi, jphi, g_inv = structure.phi, structure.jphi, structure.g_inv
    # a is differentiated here, so it is built to first order, not read off the first-order batch
    a = riemann.nabla_omega_along(conn.nabla_omega, phi, g_inv)
    ja = -jets.contract(a, structure.J, 0, 0)  # (Ja)_i = -a_k J^k_i
    xi = 0.5 * tensorops.form_inner(riemann.covd(conn.gamma, phi), jphi, g_inv, (1, 2))
    dd = conn.nabla2_omega.value  # (p, m, n, i, j)
    lhs = dd - np.moveaxis(dd, 1, 2)
    coeff_phi = (tensorops.ext_d_1form(a) - tensorops.wedge11(ja, xi)).value
    coeff_jphi = (tensorops.ext_d_1form(ja) + tensorops.wedge11(a, xi)).value
    rhs = np.einsum("pmn,pij->pmnij", coeff_phi, phi.value) - np.einsum("pmn,pij->pmnij", coeff_jphi, jphi.value)
    return np.abs(tensorops.frame_components(lhs - rhs, structure.frame)).max(axis=(1, 2, 3, 4)).tolist()


def canonical_ricci_form(dr: DecompBatch) -> np.ndarray:
    """Ricci form of the first canonical Hermitian connection at each point
    of the batch, in frame components:

        gamma0(X, Y) = 4 Ric*(JX, Y) + <J nabla_X J, nabla_Y J>.

    It is antisymmetric; on Kahler points the second term vanishes and gamma0
    is four times the usual Ricci form.
    """
    conn = dr.cd.conn
    d_omega_f = tensorops.frame_components(conn.nabla_omega.value, conn.structure.frame)
    # first term: 4 Ric*(J e_x, e_y) with (J e_x)^k = J^k_x
    gamma = 4.0 * np.einsum("kx,pky->pxy", J_FRAME, dr.ric_star)
    # (J o nabla_m J) as a lowered 2-tensor: g(J P e_i, e_j) = -P(e_i, J e_j),
    # where P(e_i, e_j) = (nabla_m Omega)(e_i, e_j)
    jp = -np.einsum("pmik,kj->pmij", d_omega_f, J_FRAME)
    return gamma + np.einsum("pxij,pyij->pxy", jp, d_omega_f)


# -- classification -------------------------------------------------------------


def classify(cd: CurvatureBatch, dr: DecompBatch, hfo: FirstOrderBatch) -> GrayLadder:
    """The Gray residuals, the verdict of the class ladder and descriptive
    flags at every point of the batch.

    The AK rungs and the j-invariant-ricci flag use the bounds of the
    `almost_kahler` and `j_invariant_ricci` hypotheses, so a point with an AK
    verdict or the flag is one where the rows assuming them apply.
    """
    g1, g2, g3 = algebra.gray_residuals(cd.R_frame)
    tol = DEFAULT_VERDICT_TOL
    flag_holds = {
        "einstein": (dr.ric_anti_norm < tol) & (np.abs(np.trace(dr.ric0, axis1=1, axis2=2)) < tol) & (algebra.frobenius(dr.ric0) < tol),
        "self-dual": algebra.frobenius(dr.wminus) < tol,
        "anti-self-dual": algebra.frobenius(dr.wplus) < tol,
        "j-invariant-ricci": dr.is_j_invariant_ricci,
    }
    nabla_j = np.sqrt(np.maximum(hfo.nabla_j_sq, 0.0))
    kahler = (nabla_j < tol) & (hfo.nijenhuis_norm < tol)
    # the rung of each point, an index into LADDER
    ak_rung = np.where(g1 < tol, 1, np.where(g2 < tol, 2, np.where(g3 < tol, 3, 4)))
    rungs = np.where(kahler, 0, np.where(hfo.is_almost_kahler, ak_rung, 5)).tolist()
    columns = [holds.tolist() for holds in flag_holds.values()]
    flags = [tuple(flag for flag, holds in zip(flag_holds, point) if holds) for point in zip(*columns)]
    return GrayLadder(g1.tolist(), g2.tolist(), g3.tolist(), [LADDER[rung] for rung in rungs], flags)


def gray_report(cd: CurvatureBatch, dr: DecompBatch, seed: int) -> GrayReport:
    """The sectional curvature statistics over PLANES seeded Lagrangian planes
    and the W+ eigenvalues at each point of the batch.

    A plane X ^ Y is Lagrangian when g(JX, Y) = 0; sampling Y orthogonal to
    both X and JX enforces this exactly. When `lemma6_triple` vanishes the
    sampled curvature must be the pointwise constant (2s - kappa)/24.
    """
    x, y = _lagrangian_planes(seed)
    mus = np.einsum("pijkl,in,jn,kn,ln->pn", cd.R_frame, x, y, x, y)  # mu[p, n] = R(X_n, Y_n, X_n, Y_n)
    mu_formula = (2.0 * cd.s_value - dr.kappa) / 24.0
    return GrayReport(mu_formula.tolist(), mus.min(axis=1).tolist(), mus.max(axis=1).tolist(), np.linalg.eigvalsh(dr.wplus))
