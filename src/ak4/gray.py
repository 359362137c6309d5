"""Gray curvature conditions, totally-real sectional curvature, the reversed
almost Hermitian structure, and the canonical-connection Ricci form.

The three Gray identities are evaluated as max-norm residuals over all
frame index tuples. The classification ladder turns them into verdicts:
KAHLER when nabla J vanishes, AK-G1/AK-G2/AK-G3 for almost Kahler
structures satisfying the corresponding identity, AK for merely almost
Kahler, ALMOST-HERMITIAN otherwise.

Totally-real (Lagrangian) planes are sampled deterministically: a random
unit vector X, then a unit Y from the orthogonal complement of
span{X, JX}, enforced by explicit projection rather than rejection, so the
sampling has no bias near J-invariant planes.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from . import algebra, jets, tensorops
from .charts import J_FRAME
from .decomp import DecompReport
from .jets import Jet
from .riemann import CurvatureData, HermitianFirstOrder

DEFAULT_VERDICT_TOL = 1e-7


@dataclass
class GrayReport:
    g1: float
    g2: float
    g3: float
    lemma6_triple: tuple[float, float, float]  # |Ric^anti|, |W3+|, |W-|
    mu_formula: float  # (2s - kappa)/24
    mu_min: float
    mu_max: float
    wplus_eigenvalues: np.ndarray
    verdict: str
    flags: tuple[str, ...]
    prop1_residual: float | None
    prop1_note: str | None
    const_nabla_j_residual: float | None  # |d(s* - s)| under the second condition


@dataclass
class ReversedStructure:
    """Structure induced by flipping J on the orthogonal complement of the
    Kahler nullity; defined only where nabla J is nonzero."""

    valid: bool
    note: str
    d_omega_bar_norm: float | None = None
    da_residual: float | None = None
    dja_residual: float | None = None
    prop2i_residual: float | None = None
    structure_residual: float | None = None  # Jbar orthogonal a.c.s. check
    second_derivative_residual: float | None = None  # unconditional shape identity
    nullity_basis: np.ndarray | None = None  # frame components of {B, JB} spanning D
    nullity_perp_basis: np.ndarray | None = None  # frame components of {A, JA}
    g2_holds: bool = False


def lemma5_check(dr: DecompReport, gr: tuple[float, float, float]) -> dict[str, float]:
    """Both sides of the equivalence: second Gray identity <-> (Ric J-invariant,
    W2+ = 0, W3+ = 0)."""
    triple = (dr.ric_anti_norm, float(algebra.frobenius(dr.w2)), float(algebra.frobenius(dr.w3)))
    return {"g2": gr[1], "triple_max": max(triple), "ric_anti": triple[0], "w2": triple[1], "w3": triple[2]}


def star_scalar_jet(cd: CurvatureData) -> Jet:
    """The star-scalar curvature as a first-order jet (trace of -R(Omega)(J., .)).

    First order is all `prop1_check` differentiates, so every input enters
    truncated to it."""
    sp = cd.sp
    ginv = sp.g_inv.truncate(1)
    r_omega = tensorops.form_inner(cd.R.truncate(1), sp.omega.truncate(1), ginv, (2, 3))
    ric_star = -jets.contract(sp.J.truncate(1), r_omega, 0, 0)  # -J^k_i (R Omega)_kj
    return jets.contract(ginv, ric_star, (0, 1), (0, 1))


def prop1_check(
    cd: CurvatureData,
    dr: DecompReport,
    hfo: HermitianFirstOrder,
    g2_residual: float,
) -> tuple[float | None, str | None, float | None]:
    """Residual of d(s - s*) - kappa theta = 4 Ric0(theta) under the second
    Gray condition, plus |d(s* - s)| for almost Kahler points (pointwise
    constancy of |nabla J|^2).

    Returns (residual, note, d_s_star_minus_s_norm); residual is None with an
    explanatory note when the hypothesis fails at the point.
    """
    sp = cd.sp
    if sp.order < 3:
        raise jets.JetOrderError("the first-derivative scalar identity needs jet order >= 3")
    if g2_residual > DEFAULT_VERDICT_TOL:
        return None, f"hypothesis not met: g2 residual {g2_residual:.3e}", None
    s_star = star_scalar_jet(cd)
    diff = cd.s - s_star
    d_diff = tensorops.frame_components(jets.partials(diff).value, sp.frame)
    theta_f = tensorops.frame_components(hfo.theta.value, sp.frame)
    lhs = d_diff - dr.kappa * theta_f
    rhs = 4.0 * dr.ric0 @ theta_f
    residual = float(np.abs(lhs - rhs).max())
    const_res = float(np.abs(d_diff).max()) if hfo.is_almost_kahler else None
    return residual, None, const_res


def totally_real_curvature(cd: CurvatureData, dr: DecompReport, n_planes: int, seed: int) -> dict:
    """Sectional curvature statistics over seeded Lagrangian planes.

    A plane X ^ Y is Lagrangian when g(JX, Y) = 0; sampling Y orthogonal to
    both X and JX enforces this exactly. When the triple
    (|Ric^anti|, |W3+|, |W-|) vanishes the sampled curvature must be the
    pointwise constant (2s - kappa)/24.
    """
    if n_planes < 16:
        raise ValueError("need at least 16 sample planes")
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
    mus = np.einsum("ijkl,ni,nj,nk,nl->n", cd.R_frame, x, y, x, y)
    mu_formula = (2.0 * dr.s - dr.kappa) / 24.0
    triple = (dr.ric_anti_norm, float(algebra.frobenius(dr.w3)), float(algebra.frobenius(dr.wminus)))
    return {"mu_formula": mu_formula, "mu_min": float(mus.min()), "mu_max": float(mus.max()), "lemma6_triple": triple}


def _row_dot(a: np.ndarray, b: np.ndarray) -> np.ndarray:
    """Dot product of each row pair, bit-identical to `a[k] @ b[k]` (einsum and sum are not)."""
    return (a[:, None, :] @ b[:, :, None])[:, 0, 0]


def _lagrangian_part(y: np.ndarray, x: np.ndarray, jx: np.ndarray) -> np.ndarray:
    """Each row of y minus its components along the unit rows of x and jx."""
    return y - (_row_dot(y, x)[:, None] * x + _row_dot(y, jx)[:, None] * jx)


def wplus_degeneracy(dr: DecompReport) -> tuple[np.ndarray, float]:
    """Eigenvalues of the self-dual Weyl block and the minimal pairwise gap."""
    eig = np.linalg.eigvalsh(dr.wplus)
    gaps = [abs(eig[0] - eig[1]), abs(eig[1] - eig[2]), abs(eig[0] - eig[2])]
    return eig, float(min(gaps))


def reversed_structure(hfo: HermitianFirstOrder, dr: DecompReport, g2_residual: float) -> ReversedStructure:
    """Reversed-orientation almost Hermitian structure from the Kahler nullity.

    Builds Jbar = J on the nullity and -J on its orthogonal complement
    span{a, Ja}, the 2-form Omega_bar = Omega - (2/|a|^2) a ^ Ja, the
    connection 1-form xi of the phi gauge, the two structure-equation
    residuals for da and d(Ja), and the residual of the traceless-Ricci
    normal form Ric0 = (kappa/4)(-g|_D + g|_Dperp). Structure-equation and
    closedness numbers are asserted by callers only where the second Gray
    condition holds; here they are always reported as diagnostics.
    """
    sp = hfo.conn.sp
    if sp.order < 2:
        raise jets.JetOrderError("the reversed structure needs jet order >= 2")
    a = hfo.a
    ginv = sp.g_inv
    a_sq = tensorops.vector_inner(a, a, ginv)
    a_sq_val = float(a_sq.value)
    if a_sq_val <= 1e-10:
        return ReversedStructure(valid=False, note="nullity undefined: nabla J vanishes at this point")

    g2_holds = g2_residual <= DEFAULT_VERDICT_TOL
    j_mat = sp.J.value
    g_mat = sp.g.value
    a_vec = sp.g_inv.value @ a.value
    a_unit = a_vec / np.sqrt(a_vec @ g_mat @ a_vec)
    ja_unit = j_mat @ a_unit
    # projector onto span{a, Ja}, then Jbar = J (Id - 2 P)
    proj = np.outer(a_unit, g_mat @ a_unit) + np.outer(ja_unit, g_mat @ ja_unit)
    jbar = j_mat @ (np.eye(4) - 2.0 * proj)
    structure_residual = float(
        max(
            np.abs(jbar @ jbar + np.eye(4)).max(),
            np.abs(jbar.T @ g_mat @ jbar - g_mat).max(),
        )
    )

    ja = -jets.contract(a, sp.J, 0, 0)  # (Ja)_i = -a_k J^k_i
    omega_bar = sp.omega - (2.0 / a_sq) * tensorops.wedge11(a, ja)
    d_omega_bar = tensorops.ext_d_2form(omega_bar)
    d_omega_bar_norm = float(np.abs(tensorops.frame_components(d_omega_bar.value, sp.frame)).max())

    # xi from nabla phi = -a (x) Omega + xi (x) J phi
    xi = 0.5 * tensorops.form_inner(hfo.conn.covd(sp.phi), sp.jphi, ginv, (1, 2))

    s_star = dr.s_star
    factor = (s_star - dr.s) / 8.0
    da = tensorops.ext_d_1form(a)
    dja = tensorops.ext_d_1form(ja)
    da_pred = tensorops.wedge11(ja, xi) + factor * sp.jphi
    dja_pred = -tensorops.wedge11(a, xi) + factor * sp.phi
    frame = sp.frame
    da_residual = float(np.abs(tensorops.frame_components((da - da_pred).value, frame)).max())
    dja_residual = float(np.abs(tensorops.frame_components((dja - dja_pred).value, frame)).max())

    # Unconditional shape of the commuted second derivative on almost Kahler
    # points: antisymmetrized nabla^2 Omega = (da - Ja ^ xi) (x) phi
    # - (d(Ja) + a ^ xi) (x) J phi. Valid regardless of the second Gray
    # condition, so it pins down the xi extraction.
    second_derivative_residual = None
    if hfo.is_almost_kahler and sp.order >= 2:
        dd = hfo.conn.covd2(sp.omega).value  # (m, n, i, j)
        lhs = dd - np.moveaxis(dd, 0, 1)
        coeff_phi = (da - tensorops.wedge11(ja, xi)).value
        coeff_jphi = (dja + tensorops.wedge11(a, xi)).value
        rhs = np.einsum("mn,ij->mnij", coeff_phi, sp.phi.value) - np.einsum("mn,ij->mnij", coeff_jphi, sp.jphi.value)
        second_derivative_residual = float(np.abs(tensorops.frame_components(lhs - rhs, frame)).max())

    # Ric0 = (kappa/4) (-g^D + g^Dperp) as frame tensors
    a_f = tensorops.frame_components(a.value, frame)
    a_f = a_f / np.linalg.norm(a_f)
    ja_f = J_FRAME @ a_f
    g_perp = np.outer(a_f, a_f) + np.outer(ja_f, ja_f)
    prop2i = dr.ric0 - (dr.kappa / 4.0) * (-(np.eye(4) - g_perp) + g_perp)
    prop2i_residual = float(np.abs(prop2i).max())

    # orthonormal frame components of the nullity and its complement
    perp = np.stack([a_f, ja_f])
    candidates = []
    for v in np.eye(4):
        w = v - (v @ a_f) * a_f - (v @ ja_f) * ja_f
        n = np.linalg.norm(w)
        if n > 1e-8 and not candidates:
            b = w / n
            candidates = [b, J_FRAME @ b]
    nullity = np.stack(candidates)

    return ReversedStructure(
        valid=True,
        note="",
        d_omega_bar_norm=d_omega_bar_norm,
        da_residual=da_residual,
        dja_residual=dja_residual,
        prop2i_residual=prop2i_residual,
        structure_residual=structure_residual,
        second_derivative_residual=second_derivative_residual,
        nullity_basis=nullity,
        nullity_perp_basis=perp,
        g2_holds=g2_holds,
    )


def canonical_ricci_form(dr: DecompReport, hfo: HermitianFirstOrder) -> dict:
    """Ricci form of the first canonical Hermitian connection:

        gamma0(X, Y) = 4 Ric*(JX, Y) + <J nabla_X J, nabla_Y J>.

    Returned with its antisymmetry residual; on Kahler points the second
    term vanishes and gamma0 is four times the usual Ricci form.
    """
    d_omega_f = tensorops.frame_components(hfo.nabla_omega.value, hfo.conn.sp.frame)
    # first term: 4 Ric*(J e_x, e_y) with (J e_x)^k = J^k_x
    gamma = 4.0 * np.einsum("kx,ky->xy", J_FRAME, dr.ric_star)
    # (J o nabla_m J) as a lowered 2-tensor: g(J P e_i, e_j) = -P(e_i, J e_j),
    # where P(e_i, e_j) = (nabla_m Omega)(e_i, e_j)
    jp = -np.einsum("mik,kj->mij", d_omega_f, J_FRAME)
    gamma = gamma + np.einsum("xij,yij->xy", jp, d_omega_f)
    antisym = float(np.abs(gamma + gamma.T).max())
    return {"gamma0": gamma, "antisymmetry_residual": antisym}


# -- classification -------------------------------------------------------------


def classify(hfo: HermitianFirstOrder, dr: DecompReport, gr: tuple[float, float, float]) -> tuple[str, tuple[str, ...]]:
    """Verdict string for the class ladder plus descriptive flags."""
    tol = DEFAULT_VERDICT_TOL
    flags = []
    if dr.ric_anti_norm < tol and abs(np.trace(dr.ric0)) < tol and float(algebra.frobenius(dr.ric0)) < tol:
        flags.append("einstein")
    if float(algebra.frobenius(dr.wminus)) < tol:
        flags.append("self-dual")
    if float(algebra.frobenius(dr.wplus)) < tol:
        flags.append("anti-self-dual")
    if dr.ric_anti_norm < tol:
        flags.append("j-invariant-ricci")

    nabla_j = np.sqrt(max(hfo.nabla_j_sq, 0.0))
    if nabla_j < tol and hfo.nijenhuis_norm < tol:
        return "KAHLER", tuple(flags)
    if hfo.d_omega_norm < tol:
        g1, g2, g3 = gr
        if g1 < tol:
            return "AK-G1", tuple(flags)
        if g2 < tol:
            return "AK-G2", tuple(flags)
        if g3 < tol:
            return "AK-G3", tuple(flags)
        return "AK", tuple(flags)
    return "ALMOST-HERMITIAN", tuple(flags)


def gray_report(cd: CurvatureData, dr: DecompReport, hfo: HermitianFirstOrder, n_planes: int, seed: int) -> GrayReport:
    gr = tuple(float(v) for v in algebra.gray_residuals(cd.R_frame))
    planes = totally_real_curvature(cd, dr, n_planes=n_planes, seed=seed)
    eig, _ = wplus_degeneracy(dr)
    verdict, flags = classify(hfo, dr, gr)
    if cd.sp.order >= 3:
        prop1_res, prop1_note, const_res = prop1_check(cd, dr, hfo, gr[1])
    else:
        prop1_res, prop1_note, const_res = None, "skipped: jet order < 3", None
    return GrayReport(
        g1=gr[0],
        g2=gr[1],
        g3=gr[2],
        lemma6_triple=planes["lemma6_triple"],
        mu_formula=planes["mu_formula"],
        mu_min=planes["mu_min"],
        mu_max=planes["mu_max"],
        wplus_eigenvalues=eig,
        verdict=verdict,
        flags=flags,
        prop1_residual=prop1_res,
        prop1_note=prop1_note,
        const_nabla_j_residual=const_res,
    )
