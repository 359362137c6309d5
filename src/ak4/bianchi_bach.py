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

import functools
from dataclasses import dataclass

import numpy as np

from . import algebra, jets, tensorops
from .charts import FRAME_FORMS, J_FRAME, J_SIDE_ORDER, StructurePoint
from .decomp import DecompReport
from .jets import Jet
from .riemann import CurvatureData, HermitianFirstOrder

OMEGA_F, PHI_F, JPHI_F = FRAME_FORMS[0], FRAME_FORMS[1], FRAME_FORMS[2]


@dataclass
class SecondOrderReport:
    """Third- and fourth-order curvature identities at one point."""

    bach_ak_skip_reason: str | None
    residuals: dict[str, float]


def cotton_york(cd: CurvatureData) -> Jet:
    """C_{X,Y,Z} = nabla_Z h(Y,X) - nabla_Y h(Z,X), h = (1/2)(s/12 g + Ric0)."""
    if cd.sp.order < 3:
        raise jets.JetOrderError("Cotton-York needs jet order >= 3")
    dh = cd.conn.covd(cd.h)  # (m, i, j) = nabla_m h_ij
    # C[x, y, z] = dh[z, y, x] - dh[y, z, x]
    return jets.moveaxis(dh, (0, 1, 2), (2, 1, 0)) - jets.moveaxis(dh, (0, 1, 2), (1, 2, 0))


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


def split_delta_wplus(dwp_frame: np.ndarray) -> tuple[np.ndarray, np.ndarray, float]:
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


def _bach_from(cd: CurvatureData, w: Jet, dw: Jet) -> np.ndarray:
    """sum_i [nabla_i (dw)(X, e_i, Y) + w(X, e_i, h(e_i), Y)] in frame components."""
    sp = cd.sp
    term1 = cd.conn.divergence(dw, 1).value  # (x, y)
    # the W h term is read as a value only: it runs on order-0 truncations
    term2 = jets.contract(w.truncate(0), cd.h_raised, (1, 2), (0, 1)).value  # W_xaby h^ab -> (x, y)
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


def bach_almost_kahler(cd: CurvatureData) -> tuple[np.ndarray, np.ndarray]:
    """Closed-form Bach tensor for almost Kahler metrics with J-invariant Ricci.

    Returns (B, B_ricci_route) where

      B = -1/3 (nabla ds)^inv + 1/6 (nabla ds)^anti - (lap s / 12) g
          - (s/6) Ric0 + S,      S = sum_i (nabla_i rho0) o (nabla_i Omega),

    and B_ricci_route is the cross-check expression
      1/2 nabla*nabla Ric0 + (lap s / 24) g + 1/6 nabla ds + (s/6) Ric0 - W(Ric0).

    Both equal the Bach tensor only where the structure is almost Kahler and
    the Ricci tensor J-invariant; the caller checks that.
    """
    sp = cd.sp
    if sp.order < 4:
        raise jets.JetOrderError("Bach tensor needs jet order 4")

    conn = cd.conn
    frame = sp.frame
    ds = jets.partials(cd.s)
    hess = conn.covd(ds).value  # (nabla ds)_{mi}
    hess_f = tensorops.frame_components(hess, frame)
    hess_inv = algebra.j_invariant_part(hess_f)
    hess_anti = algebra.j_anti_part(hess_f)
    lap_s = -float(np.trace(hess_f))

    ric0_f = cd.ric0_frame
    s_val = cd.s_value

    # rho0_ij = J^k_i Ric0_kj, to first order: only the value of its covariant derivative is read
    rho0 = jets.contract(sp.J.truncate(1), cd.ric0.truncate(1), 0, 0)
    d_rho0 = tensorops.frame_components(conn.covd(rho0).value, frame)
    d_omega = tensorops.frame_components(conn.nabla_omega.value, frame)
    # endomorphism composition in an orthonormal frame: (phi o psi)_ij = phi_nj psi_in
    s_tensor = np.einsum("mnj,min->ij", d_rho0, d_omega)

    b_ak = (
        -hess_inv / 3.0
        + hess_anti / 6.0
        - (lap_s / 12.0) * np.eye(4)
        - (s_val / 6.0) * ric0_f
        + s_tensor
    )

    lap_ric0 = tensorops.frame_components(conn.codifferential(conn.covd(cd.ric0)).value, frame)
    w_f = tensorops.frame_components(cd.weyl.value, frame)
    w_ring = -np.einsum("xaby,ab->xy", w_f, ric0_f)
    b_ricci = 0.5 * lap_ric0 + (lap_s / 24.0) * np.eye(4) + hess_f / 6.0 + (s_val / 6.0) * ric0_f - w_ring
    return b_ak, b_ricci


def weitzenboeck_check(cd: CurvatureData, field: Jet | None = None) -> float:
    """Residual of the 2-form Weitzenboeck identity

        Delta phi = nabla*nabla phi + (s/3) phi - 2 W(phi)

    for the supplied 2-form field (default: the fundamental 2-form). Both
    sides differentiate the field at most twice, so it enters at order 2.
    nabla phi is formed once and gives delta phi; nabla*nabla phi is the
    codifferential of nabla phi, except for Omega, whose `nabla_omega` and
    `nabla2_omega` the connection has cached already. The algebraic terms
    (s/3) phi and W(phi) are read as values only, so they are formed from
    order-0 truncations.
    """
    sp = cd.sp
    if sp.order < 3:
        raise jets.JetOrderError("Weitzenboeck check needs jet order >= 3")
    conn = cd.conn
    if field is None:
        phi, nabla_phi = sp.omega, conn.nabla_omega
        rough = conn.neg_trace(conn.nabla2_omega)
    else:
        phi = field.truncate(J_SIDE_ORDER)
        nabla_phi = conn.covd(phi)
        rough = conn.codifferential(nabla_phi)
    delta_phi = conn.neg_trace(nabla_phi)  # 1-form
    d_delta = tensorops.ext_d_1form(delta_phi)
    d_phi = tensorops.ext_d_2form(phi)
    delta_d = conn.codifferential(d_phi)
    laplace = d_delta + delta_d
    phi0 = phi.truncate(0)
    w_phi = tensorops.form_inner(cd.weyl.truncate(0), phi0, sp.g_inv.truncate(0), (2, 3))
    rhs = rough + (cd.s.truncate(0) / 3.0) * phi0 - 2.0 * w_phi
    residual = (laplace - rhs).value
    return float(np.abs(tensorops.frame_components(residual, sp.frame)).max())


def random_polynomial_2form(sp: StructurePoint, seed: int) -> Jet:
    """Deterministic quadratic-coefficient 2-form field for identity tests.

    Each entry above the diagonal is a combination of the monomials 1, x1..x4,
    x1 x3, x2^2, x4 x1 and x3^2 with coefficients drawn uniformly from
    [-1, 1] and rounded to 6 decimals. The field is built at the order the
    Weitzenboeck check reads, min(sp.order, J_SIDE_ORDER).
    """
    order = min(sp.order, J_SIDE_ORDER)
    x1, x2, x3, x4 = (Jet.coordinate(i, sp.point, order) for i in range(4))
    c = _random_2form_coefficients(seed)
    # each product keeps the jet on the left, so Jet, not numpy, broadcasts it
    val = (
        Jet.constant(c[0], order)
        + x1 * c[1]
        + x2 * c[2]
        + x3 * c[3]
        + x4 * c[4]
        + x1 * c[5] * x3
        + x2**2 * c[6]
        + x4 * c[7] * x1
        + x3**2 * c[8]
    )
    upper = np.triu_indices(4, 1)
    out = np.zeros((4, 4, val.c.shape[-1]))
    out[upper] = val.c
    out[upper[::-1]] = -val.c
    return Jet(order, out)


@functools.lru_cache(maxsize=8)
def _random_2form_coefficients(seed: int) -> np.ndarray:
    """The rounded coefficients of `random_polynomial_2form`, drawn once per
    seed: one block of draws, 9 per entry above the diagonal in row-major
    order; row k holds the coefficient of monomial k for all six entries
    (a read-only array)."""
    rng = np.random.default_rng(np.random.SeedSequence([int(seed), 0x2F]))
    c = np.array([float(f"{v:.6f}") for v in rng.uniform(-1.0, 1.0, size=54)]).reshape(6, 9).T
    c.flags.writeable = False
    return c


# -- report assembly ------------------------------------------------------------


def second_order_report(cd: CurvatureData, hfo: HermitianFirstOrder, dr: DecompReport, weitzenboeck_seed: int) -> SecondOrderReport:
    """Compute every second-order quantity and the full residual table."""
    sp = cd.sp
    if sp.order < 4:
        raise jets.JetOrderError("second-order report needs jet order 4")
    frame = sp.frame

    c_jet = cotton_york(cd)
    c_f = tensorops.frame_components(c_jet.value, frame)
    dw_f = tensorops.frame_components(delta_weyl(cd, "full").value, frame)
    dwp_f = tensorops.frame_components(delta_weyl(cd, "plus").value, frame)

    # only the value of C+ is read: it is projected from order-0 truncations
    c_plus = tensorops.dual_projection(c_jet.truncate(0), sp.g_inv.truncate(0), sp.mu.truncate(0), +1.0, (1, 2))
    c_plus_f = tensorops.frame_components(c_plus.value, frame)

    alpha, beta, completeness = split_delta_wplus(dwp_f)

    # Lemma-type predictions for alpha and beta under J-invariant Ricci.
    ds_f = tensorops.frame_components(jets.partials(cd.s).value, frame)
    ric0_f = cd.ric0_frame
    theta_f = tensorops.frame_components(hfo.theta.value, frame)
    alpha_pred = -ds_f / 12.0 + 0.5 * ric0_f @ theta_f
    a_f = tensorops.frame_components(hfo.a.value, frame)
    b_f = tensorops.frame_components(hfo.b.value, frame)
    jb = _j_form(b_f)
    beta_pred = -0.25 * ric0_f @ (a_f + jb)

    bd = bach_direct(cd)
    bp, bm = bach_gauduchon(cd)

    wz_omega = weitzenboeck_check(cd)
    wz_random = weitzenboeck_check(cd, random_polynomial_2form(sp, weitzenboeck_seed))

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
    # the hypotheses of the closed forms, as the registry's `almost_kahler` and
    # `j_invariant_ricci` test them; the JSON report names the one that fails
    skip_reason = None
    if not hfo.is_almost_kahler:
        skip_reason = f"not almost Kahler at this point: |dOmega| = {hfo.d_omega_norm:.3e}"
    elif not dr.is_j_invariant_ricci:
        skip_reason = f"Ricci tensor not J-invariant at this point: |Ric^anti| = {dr.ric_anti_norm:.3e}"
    else:
        bach_ak, bach_ricci = bach_almost_kahler(cd)
        residuals["bach direct vs almost-kahler form"] = float(np.abs(bd - bach_ak).max())
        residuals["bach direct vs ricci form"] = float(np.abs(bd - bach_ricci).max())

    return SecondOrderReport(bach_ak_skip_reason=skip_reason, residuals=residuals)
