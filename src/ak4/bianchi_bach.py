"""Differential curvature identities: Cotton-York, the split of delta W+, and
the Bach tensor by three independent routes.

Slot conventions: the codifferential of the Weyl tensor is the negative
divergence on its first slot, (delta W)(X, Y, Z) = -sum_m (nabla_m W)(e_m, X, Y, Z),
leaving the divergence slot X first and the 2-form slots (Y, Z) last; the
Cotton-York tensor uses the same slot order, so the contracted differential
Bianchi identity reads delta W = C with no normalization factor.

The rank-8 bundle of trace-free 1-forms with values in self-dual 2-forms
splits into two rank-4 pieces; delta W+ decomposes accordingly as
A(alpha) + B(beta) with

  A(alpha)_X = (J alpha)(X) Omega - (1/2)(alpha ^ X - J alpha ^ JX),
  B(beta)_X  = J beta ^ phi(X, .) + beta ^ (J phi)(X, .),

identifying both pieces with 1-forms. alpha is extracted by pairing with
Omega (which annihilates every B), beta by pairing the remainder with phi.
The beta identification depends on the phi gauge fixed by the adapted frame.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from . import jets, tensorops
from .charts import FRAME_FORMS, J_FRAME, StructurePoint
from .errors import AK4Error
from .jets import Jet
from .riemann import CurvatureData, HermitianFirstOrder

OMEGA_F, PHI_F, JPHI_F = FRAME_FORMS[0], FRAME_FORMS[1], FRAME_FORMS[2]


@dataclass
class SecondOrderReport:
    """Third- and fourth-order curvature identities at one point."""

    cotton: np.ndarray  # frame components C[x, y, z]
    delta_w: np.ndarray
    delta_w_plus: np.ndarray
    delta_w_minus: np.ndarray
    alpha: np.ndarray  # frame 1-form
    beta: np.ndarray
    bach_direct: np.ndarray  # frame 4x4
    bach_gauduchon_plus: np.ndarray
    bach_gauduchon_minus: np.ndarray
    bach_ak: np.ndarray | None
    bach_ricci_form_route: np.ndarray | None  # the nabla*nabla Ric0 expression
    bach_ak_skip_reason: str | None
    residuals: dict[str, float]


def cotton_york(cd: CurvatureData) -> Jet:
    """C_{X,Y,Z} = (1/2)[nabla_Z (s/12 g + Ric0)(Y,X) - nabla_Y (...)(Z,X)]."""
    sp = cd.sp
    if sp.order < 3:
        raise jets.JetOrderError("Cotton-York needs jet order >= 3")
    p = cd.ric - (cd.s / 6.0) * sp.g
    dp = cd.conn.covd(p)  # (m, i, j) = nabla_m P_ij
    half = 0.5 * dp
    # C[x, y, z] = half[z, y, x] - half[y, z, x]
    c = jets.moveaxis(half, (0, 1, 2), (2, 1, 0)) - jets.moveaxis(half, (0, 1, 2), (1, 2, 0))
    return c


def delta_weyl(cd: CurvatureData, which: str = "full") -> Jet:
    """Codifferential of the (projected) Weyl tensor, slots (X; Y, Z).

    The jets are memoized on `cd`, so the report and the Bach routes share them.
    """
    return getattr(cd, {"full": "delta_weyl", "plus": "delta_weyl_plus", "minus": "delta_weyl_minus"}[which])


def _pair_with_form(t3_f: np.ndarray, form_f: np.ndarray) -> np.ndarray:
    """gamma_m = <t3_m, form> with the half-norm inner product, frame components."""
    return 0.5 * np.einsum("mij,ij->m", t3_f, form_f)


def _j_form(alpha: np.ndarray) -> np.ndarray:
    """(J alpha)_i = -alpha_k J^k_i in frame components."""
    return -np.einsum("k,ki->i", alpha, J_FRAME)


def reconstruct_v_plus(alpha: np.ndarray) -> np.ndarray:
    """A(alpha)[m, i, j] in frame components."""
    ja = _j_form(alpha)
    eye = np.eye(4)
    a = np.einsum("m,ij->mij", ja, OMEGA_F)
    wedge1 = np.einsum("i,mj->mij", alpha, eye) - np.einsum("j,mi->mij", alpha, eye)
    # (J e_m)^flat_i = J^i_m
    jm = J_FRAME.T  # jm[m, i] = J^i_m
    wedge2 = np.einsum("i,mj->mij", ja, jm) - np.einsum("j,mi->mij", ja, jm)
    return a - 0.5 * (wedge1 - wedge2)


def reconstruct_v_minus(beta: np.ndarray) -> np.ndarray:
    """B(beta)[m, i, j] in frame components."""
    jb = _j_form(beta)
    phi_m = PHI_F  # phi(e_m, .)_j = PHI_F[m, j]
    jphi_m = JPHI_F
    t = np.einsum("i,mj->mij", jb, phi_m) - np.einsum("j,mi->mij", jb, phi_m)
    t += np.einsum("i,mj->mij", beta, jphi_m) - np.einsum("j,mi->mij", beta, jphi_m)
    return t


def split_delta_wplus(sp: StructurePoint, dwp_frame: np.ndarray) -> tuple[np.ndarray, np.ndarray, float]:
    """Extract (alpha, beta) from frame components of delta W+ and report the
    completeness residual |delta W+ - A(alpha) - B(beta)|."""
    gamma = _pair_with_form(dwp_frame, OMEGA_F)
    alpha = 0.5 * np.einsum("m,ma->a", gamma, J_FRAME)  # alpha_a = (1/2) gamma_m J^m_a
    a_part = reconstruct_v_plus(alpha)
    rem = dwp_frame - a_part
    gamma2 = _pair_with_form(rem, PHI_F)
    beta = 0.5 * np.einsum("m,ma->a", gamma2, J_FRAME)
    b_part = reconstruct_v_minus(beta)
    completeness = float(np.abs(dwp_frame - a_part - b_part).max())
    return alpha, beta, completeness


def _normalized_ricci(cd: CurvatureData) -> Jet:
    """h = (1/2)(Ric - s/6 g) as jets."""
    return 0.5 * (cd.ric - (cd.s / 6.0) * cd.sp.g)


def _bach_from(cd: CurvatureData, w: Jet, dw: Jet) -> np.ndarray:
    """sum_i [nabla_i (dw)(X, e_i, Y) + w(X, e_i, h(e_i), Y)] in frame components."""
    sp = cd.sp
    ginv = sp.g_inv
    ddw = cd.conn.covd(dw)  # (m, x, a, y)
    term1 = jets.contract(ginv, ddw, (0, 1), (0, 2)).value  # (x, y)
    h = _normalized_ricci(cd)
    h_upup = tensorops.raise_pair(h, ginv, 0, 1)
    term2 = jets.contract(w, h_upup, (1, 2), (0, 1)).value  # W_xaby h^ab -> (x, y)
    return tensorops.frame_components(term1 + term2, sp.frame)


def bach_direct(cd: CurvatureData) -> np.ndarray:
    """The Bach tensor from the full Weyl tensor, frame components."""
    if cd.sp.order < 4:
        raise jets.JetOrderError("Bach tensor needs jet order 4")
    return _bach_from(cd, cd.weyl, delta_weyl(cd, "full"))


def bach_gauduchon(cd: CurvatureData) -> tuple[np.ndarray, np.ndarray]:
    """The Bach tensor from each Weyl half separately: B = 2 * (half-expression)."""
    if cd.sp.order < 4:
        raise jets.JetOrderError("Bach tensor needs jet order 4")
    bp = 2.0 * _bach_from(cd, cd.weyl_plus, delta_weyl(cd, "plus"))
    bm = 2.0 * _bach_from(cd, cd.weyl_minus, delta_weyl(cd, "minus"))
    return bp, bm


def bach_almost_kahler(
    cd: CurvatureData,
    hfo: HermitianFirstOrder,
    ric_anti_norm: float,
    tol: float = 1e-8,
) -> tuple[np.ndarray, np.ndarray]:
    """Closed-form Bach tensor for almost Kahler metrics with J-invariant Ricci.

    Returns (B, B_ricci_route) where

      B = -1/3 (nabla ds)^inv + 1/6 (nabla ds)^anti - (lap s / 12) g
          - (s/6) Ric0 + S,      S = sum_i (nabla_i rho0) o (nabla_i Omega),

    and B_ricci_route is the cross-check expression
      1/2 nabla*nabla Ric0 + (lap s / 24) g + 1/6 nabla ds + (s/6) Ric0 - W(Ric0).

    Raises AK4Error when the almost Kahler / J-invariant Ricci preconditions
    fail at the point.
    """
    sp = cd.sp
    if sp.order < 4:
        raise jets.JetOrderError("Bach tensor needs jet order 4")
    if hfo.d_omega_norm > tol:
        raise AK4Error(f"not almost Kahler at this point: |dOmega| = {hfo.d_omega_norm:.3e}")
    if ric_anti_norm > tol:
        raise AK4Error(f"Ricci tensor not J-invariant at this point: |Ric^anti| = {ric_anti_norm:.3e}")

    conn = cd.conn
    frame = sp.frame
    ds = jets.partials(cd.s)
    hess = conn.covd(ds).value  # (nabla ds)_{mi}
    hess_f = tensorops.frame_components(hess, frame)
    hess_inv = 0.5 * (hess_f + np.einsum("ai,ab,bj->ij", J_FRAME, hess_f, J_FRAME))
    hess_anti = hess_f - hess_inv
    lap_s = -float(np.trace(hess_f))

    ric0_f = cd.ric0_frame
    s_val = cd.s_value

    rho0 = jets.contract(sp.J, cd.ric0, 0, 0)  # rho0_ij = J^k_i Ric0_kj
    d_rho0 = tensorops.frame_components(conn.covd(rho0).value, frame)
    d_omega = tensorops.frame_components(hfo.nabla_omega.value, frame)
    # endomorphism composition in an orthonormal frame: (phi o psi)_ij = phi_nj psi_in
    s_tensor = np.einsum("mnj,min->ij", d_rho0, d_omega)

    b_ak = (
        -hess_inv / 3.0
        + hess_anti / 6.0
        - (lap_s / 12.0) * np.eye(4)
        - (s_val / 6.0) * ric0_f
        + s_tensor
    )

    lap_ric0 = tensorops.frame_components(conn.rough_laplacian(cd.ric0).value, frame)
    w_f = tensorops.frame_components(cd.weyl.value, frame)
    w_ring = -np.einsum("xaby,ab->xy", w_f, ric0_f)
    b_ricci = 0.5 * lap_ric0 + (lap_s / 24.0) * np.eye(4) + hess_f / 6.0 + (s_val / 6.0) * ric0_f - w_ring
    return b_ak, b_ricci


def weitzenboeck_check(sp: StructurePoint, cd: CurvatureData, field: Jet | None = None) -> float:
    """Residual of the 2-form Weitzenboeck identity

        Delta phi = nabla*nabla phi + (s/3) phi - 2 W(phi)

    for the supplied 2-form field (default: the fundamental 2-form).
    """
    if sp.order < 3:
        raise jets.JetOrderError("Weitzenboeck check needs jet order >= 3")
    conn = cd.conn
    phi = sp.omega if field is None else field
    delta_phi = conn.codifferential(phi)  # 1-form
    d_delta = tensorops.ext_d_1form(delta_phi)
    d_phi = tensorops.ext_d_2form(phi)
    delta_d = conn.codifferential(d_phi)
    laplace = d_delta + delta_d
    rough = conn.rough_laplacian(phi)
    w_phi = 0.5 * jets.contract(cd.weyl, tensorops.raise_pair(phi, sp.g_inv, 0, 1), (2, 3), (0, 1))
    rhs = rough + (cd.s / 3.0) * phi - 2.0 * w_phi
    residual = (laplace - rhs).value
    return float(np.abs(tensorops.frame_components(residual, sp.frame)).max())


def random_polynomial_2form(sp: StructurePoint, seed: int, order: int | None = None) -> Jet:
    """Deterministic quadratic-coefficient 2-form field for identity tests.

    Each entry above the diagonal is a combination of the monomials 1, x1..x4,
    x1 x3, x2^2, x4 x1 and x3^2 with coefficients drawn uniformly from
    [-1, 1] and rounded to 6 decimals.
    """
    rng = np.random.default_rng(np.random.SeedSequence([int(seed), 0x2F]))
    order = sp.order if order is None else order
    x1, x2, x3, x4 = (Jet.coordinate(i, sp.point, order) for i in range(4))
    entries = [[None] * 4 for _ in range(4)]
    zero = Jet.constant(0.0, order, sp.point)
    for i in range(4):
        entries[i][i] = zero
        for j in range(i + 1, 4):
            c = [float(f"{v:.6f}") for v in rng.uniform(-1.0, 1.0, size=9)]
            val = (
                Jet.constant(c[0], order, sp.point)
                + c[1] * x1
                + c[2] * x2
                + c[3] * x3
                + c[4] * x4
                + c[5] * x1 * x3
                + c[6] * x2**2
                + c[7] * x4 * x1
                + c[8] * x3**2
            )
            entries[i][j] = val
            entries[j][i] = -val
    return jets.stack([jets.stack(row) for row in entries])


# -- report assembly ------------------------------------------------------------


def second_order_report(
    sp: StructurePoint,
    cd: CurvatureData,
    hfo: HermitianFirstOrder,
    ric_anti_norm: float,
    ric0_frame: np.ndarray | None = None,
    theta_frame: np.ndarray | None = None,
    weitzenboeck_seed: int = 2024,
) -> SecondOrderReport:
    """Compute every second-order quantity and the full residual table."""
    if sp.order < 4:
        raise jets.JetOrderError("second-order report needs jet order 4")
    frame = sp.frame
    conn = cd.conn

    c_jet = cotton_york(cd)
    c_f = tensorops.frame_components(c_jet.value, frame)
    dw = delta_weyl(cd, "full")
    dw_f = tensorops.frame_components(dw.value, frame)
    dwp = delta_weyl(cd, "plus")
    dwp_f = tensorops.frame_components(dwp.value, frame)
    dwm_f = tensorops.frame_components(delta_weyl(cd, "minus").value, frame)

    c_plus = tensorops.dual_projection(c_jet, sp.g_inv, sp.mu, +1.0, (1, 2))
    c_plus_f = tensorops.frame_components(c_plus.value, frame)

    alpha, beta, completeness = split_delta_wplus(sp, dwp_f)

    # Lemma-type predictions for alpha and beta under J-invariant Ricci.
    ds_f = tensorops.frame_components(jets.partials(cd.s).value, frame)
    ric0_f = cd.ric0_frame if ric0_frame is None else ric0_frame
    theta_f = tensorops.frame_components(hfo.theta.value, frame) if theta_frame is None else theta_frame
    alpha_pred = -ds_f / 12.0 + 0.5 * ric0_f @ theta_f
    a_f = tensorops.frame_components(hfo.a.value, frame)
    b_f = tensorops.frame_components(hfo.b.value, frame)
    jb = _j_form(b_f)
    beta_pred = -0.25 * ric0_f @ (a_f + jb)

    bd = bach_direct(cd)
    bp, bm = bach_gauduchon(cd)

    bach_ak = None
    bach_ricci = None
    skip_reason = None
    try:
        bach_ak, bach_ricci = bach_almost_kahler(cd, hfo, ric_anti_norm)
    except AK4Error as exc:
        skip_reason = str(exc)

    wz_omega = weitzenboeck_check(sp, cd, None)
    wz_random = weitzenboeck_check(sp, cd, random_polynomial_2form(sp, weitzenboeck_seed))

    residuals = {
        "delta W = C": float(np.abs(dw_f - c_f).max()),
        "delta W+ = C+": float(np.abs(dwp_f - c_plus_f).max()),
        "V+ + V- completeness": completeness,
        "alpha formula": float(np.abs(alpha - alpha_pred).max()),
        "beta formula": float(np.abs(beta - beta_pred).max()),
        "bach symmetric": float(np.abs(bd - bd.T).max()),
        "bach traceless": float(abs(np.trace(bd))),
        "bach direct vs plus": float(np.abs(bd - bp).max()),
        "bach direct vs minus": float(np.abs(bd - bm).max()),
        "weitzenboeck omega": wz_omega,
        "weitzenboeck random": wz_random,
        "beta norm": float(np.abs(beta).max()),
        "alpha norm": float(np.abs(alpha).max()),
    }
    if bach_ak is not None:
        residuals["bach direct vs almost-kahler form"] = float(np.abs(bd - bach_ak).max())
        residuals["bach direct vs ricci form"] = float(np.abs(bd - bach_ricci).max())

    return SecondOrderReport(
        cotton=c_f,
        delta_w=dw_f,
        delta_w_plus=dwp_f,
        delta_w_minus=dwm_f,
        alpha=alpha,
        beta=beta,
        bach_direct=bd,
        bach_gauduchon_plus=bp,
        bach_gauduchon_minus=bm,
        bach_ak=bach_ak,
        bach_ricci_form_route=bach_ricci,
        bach_ak_skip_reason=skip_reason,
        residuals=residuals,
    )
