"""Gray curvature conditions, totally-real sectional curvature, the Ricci
normal form of the reversed structure, the shape of the commuted second
derivative of Omega, and the canonical-connection Ricci form.

The three Gray identities are evaluated as max-norm residuals over all
frame index tuples. The classification ladder turns them into verdicts:
KAHLER when nabla J vanishes, AK-G1/AK-G2/AK-G3 for almost Kahler
structures satisfying the corresponding identity, AK for merely almost
Kahler, ALMOST-HERMITIAN otherwise. `classify` builds that ladder on its own,
once per batch of points, so `ak4 classify`, which prints only the
ladder, samples no Lagrangian plane; `gray_report` holds the plane statistics
and the W+ spectrum that `report` adds, per point.

Totally-real (Lagrangian) planes are sampled deterministically: a random
unit vector X, then a unit Y from the orthogonal complement of
span{X, JX}, enforced by explicit projection rather than rejection, so the
sampling has no bias near J-invariant planes.
"""

from __future__ import annotations

import functools
from collections.abc import Sequence
from dataclasses import dataclass

import numpy as np

from . import algebra, jets, riemann, tensorops
from .charts import J_FRAME
from .decomp import DecompReport
from .jets import Jet
from .riemann import CurvatureData, HermitianFirstOrder

DEFAULT_VERDICT_TOL = 1e-7
#: Fewest Lagrangian planes `totally_real_curvature` samples.
MIN_PLANES = 16


@dataclass
class GrayLadder:
    """The three Gray residuals and the class ladder's verdict and flags."""

    g1: float
    g2: float
    g3: float
    verdict: str
    flags: tuple[str, ...]


@dataclass
class GrayReport:
    """Lagrangian sectional curvature statistics and the W+ spectrum."""

    mu_formula: float  # (2s - kappa)/24
    mu_min: float
    mu_max: float
    wplus_eigenvalues: np.ndarray


def lemma5_triple(dr: DecompReport) -> float:
    """The largest of |Ric^anti|, |W2+| and |W3+|: the side of the equivalence
    (second Gray identity <-> Ric J-invariant, W2+ = 0, W3+ = 0) opposite g2."""
    return max(dr.ric_anti_norm, float(algebra.frobenius(dr.w2)), float(algebra.frobenius(dr.w3)))


def lemma6_triple(dr: DecompReport) -> float:
    """The largest of |Ric^anti|, |W3+| and |W-|: Lemma 6 assumes all three vanish."""
    return max(dr.ric_anti_norm, float(algebra.frobenius(dr.w3)), float(algebra.frobenius(dr.wminus)))


def star_scalar_jet(cd: CurvatureData) -> Jet:
    """The star-scalar curvature as a first-order jet (trace of -R(Omega)(J., .)).

    First order is all `prop1_check` differentiates, so every input enters
    truncated to it."""
    sp = cd.sp
    ginv = sp.g_inv.truncate(1)
    r_omega = tensorops.form_inner(cd.R.truncate(1), sp.omega.truncate(1), ginv, (2, 3))
    ric_star = -jets.contract(sp.J.truncate(1), r_omega, 0, 0)  # -J^k_i (R Omega)_kj
    return jets.contract(ginv, ric_star, (0, 1), (0, 1))


def prop1_check(cd: CurvatureData, dr: DecompReport, hfo: HermitianFirstOrder) -> float:
    """Residual of d(s - s*) - kappa theta = 4 Ric0(theta), which holds under
    the second Gray condition.

    On almost Kahler points theta = 0, so the residual is |d(s* - s)|, the
    pointwise constancy of |nabla J|^2.
    """
    sp = cd.sp
    if sp.order < 3:
        raise jets.JetOrderError("the first-derivative scalar identity needs jet order >= 3")
    s_star = star_scalar_jet(cd)
    diff = cd.s - s_star
    d_diff = tensorops.frame_components(jets.partials(diff).value, sp.frame)
    theta_f = tensorops.frame_components(hfo.theta.value, sp.frame)
    lhs = d_diff - dr.kappa * theta_f
    rhs = 4.0 * dr.ric0 @ theta_f
    return float(np.abs(lhs - rhs).max())


def totally_real_curvature(cd: CurvatureData, dr: DecompReport, n_planes: int, seed: int) -> dict:
    """Sectional curvature statistics over seeded Lagrangian planes.

    A plane X ^ Y is Lagrangian when g(JX, Y) = 0; sampling Y orthogonal to
    both X and JX enforces this exactly. When `lemma6_triple` vanishes the
    sampled curvature must be the pointwise constant (2s - kappa)/24.
    """
    if n_planes < MIN_PLANES:
        raise ValueError(f"need at least {MIN_PLANES} sample planes")
    x, y = _lagrangian_planes(n_planes, seed)
    mus = np.einsum("ijkl,ni,nj,nk,nl->n", cd.R_frame, x, y, x, y)
    mu_formula = (2.0 * dr.s - dr.kappa) / 24.0
    return {"mu_formula": mu_formula, "mu_min": float(mus.min()), "mu_max": float(mus.max())}


@functools.lru_cache(maxsize=8)
def _lagrangian_planes(n_planes: int, seed: int) -> tuple[np.ndarray, np.ndarray]:
    """The unit frame vectors (X, Y) of `n_planes` seeded Lagrangian planes,
    drawn once per seed and plane count (read-only arrays)."""
    rng = np.random.default_rng(np.random.SeedSequence([int(seed), 0x7A]))
    # one block of draws: plane k takes X from row (k, 0) and Y from row (k, 1)
    draws = rng.standard_normal((n_planes, 2, 4))
    x = draws[:, 0] / np.sqrt(_row_dot(draws[:, 0], draws[:, 0]))[:, None]
    jx = x @ J_FRAME.T
    y = _lagrangian_part(draws[:, 1], x, jx)
    norm = np.sqrt(_row_dot(y, y))
    for k in np.flatnonzero(norm < 1e-8):  # essentially impossible with continuous sampling
        while norm[k] < 1e-8:
            y[k] = _lagrangian_part(rng.standard_normal((1, 4)), x[k : k + 1], jx[k : k + 1])[0]
            norm[k] = np.linalg.norm(y[k])
    y /= norm[:, None]
    x.flags.writeable = y.flags.writeable = False
    return x, y


def _row_dot(a: np.ndarray, b: np.ndarray) -> np.ndarray:
    """Dot product of each row pair, bit-identical to `a[k] @ b[k]` (einsum and sum are not)."""
    return (a[:, None, :] @ b[:, :, None])[:, 0, 0]


def _lagrangian_part(y: np.ndarray, x: np.ndarray, jx: np.ndarray) -> np.ndarray:
    """Each row of y minus its components along the unit rows of x and jx."""
    return y - (_row_dot(y, x)[:, None] * x + _row_dot(y, jx)[:, None] * jx)


def prop2i_residual(hfo: HermitianFirstOrder, dr: DecompReport) -> float:
    """Residual of the traceless-Ricci normal form Ric0 = (kappa/4)(-g|_D + g|_Dperp),
    where D, the Kahler nullity, is the orthogonal complement of span{a, Ja}.

    The normal form assumes the second Gray condition, and D is defined only
    where a does not vanish; both are left to the caller.
    """
    a_f = tensorops.frame_components(hfo.a.value, hfo.conn.sp.frame)
    a_f = a_f / np.linalg.norm(a_f)
    ja_f = J_FRAME @ a_f
    g_perp = np.outer(a_f, a_f) + np.outer(ja_f, ja_f)
    prop2i = dr.ric0 - (dr.kappa / 4.0) * (-(np.eye(4) - g_perp) + g_perp)
    return float(np.abs(prop2i).max())


def nabla2_omega_shape_residual(hfo: HermitianFirstOrder) -> float:
    """Residual of the shape of the commuted second derivative of Omega on an
    almost Kahler point:

        nabla^2_{m,n} Omega - nabla^2_{n,m} Omega
            = (da - Ja ^ xi)_mn phi - (d(Ja) + a ^ xi)_mn J phi,

    where xi is the connection 1-form of the phi gauge,
    nabla phi = -a (x) Omega + xi (x) J phi.
    """
    sp = hfo.conn.sp
    # a is differentiated here, so it is built to first order, not read off hfo
    a = riemann.nabla_omega_along(hfo.conn.nabla_omega, sp.phi, sp.g_inv)
    ja = -jets.contract(a, sp.J, 0, 0)  # (Ja)_i = -a_k J^k_i
    xi = 0.5 * tensorops.form_inner(hfo.conn.covd(sp.phi), sp.jphi, sp.g_inv, (1, 2))
    dd = hfo.conn.nabla2_omega.value  # (m, n, i, j)
    lhs = dd - np.moveaxis(dd, 0, 1)
    coeff_phi = (tensorops.ext_d_1form(a) - tensorops.wedge11(ja, xi)).value
    coeff_jphi = (tensorops.ext_d_1form(ja) + tensorops.wedge11(a, xi)).value
    rhs = np.einsum("mn,ij->mnij", coeff_phi, sp.phi.value) - np.einsum("mn,ij->mnij", coeff_jphi, sp.jphi.value)
    return float(np.abs(tensorops.frame_components(lhs - rhs, sp.frame)).max())


def canonical_ricci_form(dr: DecompReport, hfo: HermitianFirstOrder) -> np.ndarray:
    """Ricci form of the first canonical Hermitian connection, in frame components:

        gamma0(X, Y) = 4 Ric*(JX, Y) + <J nabla_X J, nabla_Y J>.

    It is antisymmetric; on Kahler points the second term vanishes and gamma0
    is four times the usual Ricci form.
    """
    d_omega_f = tensorops.frame_components(hfo.conn.nabla_omega.value, hfo.conn.sp.frame)
    # first term: 4 Ric*(J e_x, e_y) with (J e_x)^k = J^k_x
    gamma = 4.0 * np.einsum("kx,ky->xy", J_FRAME, dr.ric_star)
    # (J o nabla_m J) as a lowered 2-tensor: g(J P e_i, e_j) = -P(e_i, J e_j),
    # where P(e_i, e_j) = (nabla_m Omega)(e_i, e_j)
    jp = -np.einsum("mik,kj->mij", d_omega_f, J_FRAME)
    return gamma + np.einsum("xij,yij->xy", jp, d_omega_f)


# -- classification -------------------------------------------------------------


def classify(cds: Sequence[CurvatureData], drs: Sequence[DecompReport], hfos: Sequence[HermitianFirstOrder]) -> list[GrayLadder]:
    """The Gray residuals, the verdict of the class ladder and descriptive
    flags at every point, the residuals and flag norms formed once over all
    the points; one ladder per point.

    The AK rungs and the j-invariant-ricci flag use the bounds of the
    `almost_kahler` and `j_invariant_ricci` hypotheses, so a point with an AK
    verdict or the flag is one where the rows assuming them apply.
    """
    g1, g2, g3 = (v.tolist() for v in algebra.gray_residuals(np.stack([cd.R_frame for cd in cds])))
    tol = DEFAULT_VERDICT_TOL
    ric0 = np.stack([dr.ric0 for dr in drs])
    flag_holds = {
        "einstein": (np.array([dr.ric_anti_norm for dr in drs]) < tol)
        & (np.abs(np.trace(ric0, axis1=1, axis2=2)) < tol)
        & (algebra.frobenius(ric0) < tol),
        "self-dual": algebra.frobenius(np.stack([dr.wminus for dr in drs])) < tol,
        "anti-self-dual": algebra.frobenius(np.stack([dr.wplus for dr in drs])) < tol,
        "j-invariant-ricci": [dr.is_j_invariant_ricci for dr in drs],
    }
    ladders = []
    for k, hfo in enumerate(hfos):
        nabla_j = np.sqrt(max(hfo.nabla_j_sq, 0.0))
        if nabla_j < tol and hfo.nijenhuis_norm < tol:
            verdict = "KAHLER"
        elif hfo.is_almost_kahler:
            verdict = "AK-G1" if g1[k] < tol else "AK-G2" if g2[k] < tol else "AK-G3" if g3[k] < tol else "AK"
        else:
            verdict = "ALMOST-HERMITIAN"
        flags = tuple(flag for flag, holds in flag_holds.items() if holds[k])
        ladders.append(GrayLadder(g1=g1[k], g2=g2[k], g3=g3[k], verdict=verdict, flags=flags))
    return ladders


def gray_report(cd: CurvatureData, dr: DecompReport, n_planes: int, seed: int) -> GrayReport:
    """The Lagrangian sectional curvature statistics and the W+ eigenvalues."""
    return GrayReport(
        **totally_real_curvature(cd, dr, n_planes=n_planes, seed=seed),
        wplus_eigenvalues=np.linalg.eigvalsh(dr.wplus),
    )
