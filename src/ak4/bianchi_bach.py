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

Each function takes a `riemann.CurvatureBatch`, one of the curvature
slices `second_order_report` runs on, and returns one value per point: a
jet or an array with a leading point axis, or a list. Everything runs once
on the slice's point axis, bit for bit what each point gives alone: the
jets, the delta W+ split, S in `bach_almost_kahler` and the residual
table. The pairing of delta W+ with Omega in `split_delta_wplus` is a
signed gather over the slice (`algebra.form_pairing`), with the bits the
per-point einsum gave.

`second_order_report` hands out plain residual columns. Which points the
closed Bach forms apply at is an input, one bool per point: the identity
registry decides it from its hypotheses, so this module tests none.

Computations of one shape run stacked on the point axis (`jets.concat`),
k blocks of the slice's P points in one kernel call over k*P rows, each
block with the bits it has alone. The direct and both Gauduchon Bach routes
are one pass, the slice's cached `bach_routes`, each route from its own W
and delta W, which `bach_direct` and `bach_gauduchon` read; the
Weitzenboeck check runs Omega and the random field through one pass and
takes the field's nabla*nabla phi and every form's delta d phi in one
divergence; and `_slice_residuals` takes the frame components of (C, delta
W, delta W+, C+) in one call and of (ds, theta, a, b) in another.
"""

from __future__ import annotations

import functools

import numpy as np

from . import algebra, jets, riemann, tensorops
from .charts import FRAME_FORMS, J_FRAME, J_SIDE_ORDER
from .jets import Jet
from .riemann import CurvatureBatch, FirstOrderBatch

OMEGA_F, PHI_F, JPHI_F = FRAME_FORMS[0], FRAME_FORMS[1], FRAME_FORMS[2]


def cotton_york(cd: CurvatureBatch) -> Jet:
    """C_{X,Y,Z} = nabla_Z h(Y,X) - nabla_Y h(Z,X), h = (1/2)(s/12 g + Ric0), at each point."""
    if cd.conn.structure.order < 3:
        raise jets.JetOrderError("Cotton-York needs jet order >= 3")
    # its readers read C's value and its order-0 truncation: h enters to first order
    dh = riemann.covd(cd.gamma, cd.h.truncate(1))  # (m, i, j) = nabla_m h_ij
    # C[x, y, z] = dh[z, y, x] - dh[y, z, x]
    return jets.moveaxis(dh, (0, 1, 2), (2, 1, 0)) - jets.moveaxis(dh, (0, 1, 2), (1, 2, 0))


def delta_weyl(cd: CurvatureBatch) -> list[Jet]:
    """[delta W, delta W+, delta W-] at each point, slots (X; Y, Z): the
    slice's cached `delta_weyls`, which the Bach routes share."""
    return cd.delta_weyls


def _j_form(alpha: np.ndarray) -> np.ndarray:
    """(J alpha)_i = -alpha_k J^k_i in frame components."""
    return -np.einsum("...k,ki->...i", alpha, J_FRAME)


def reconstruct_v_plus(alpha: np.ndarray) -> np.ndarray:
    """A(alpha)[..., m, i, j] in frame components."""
    ja = _j_form(alpha)
    eye = np.eye(4)
    a = np.einsum("...m,ij->...mij", ja, OMEGA_F)
    wedge1 = np.einsum("...i,mj->...mij", alpha, eye) - np.einsum("...j,mi->...mij", alpha, eye)
    # (J e_m)^flat_i = J^i_m
    jm = J_FRAME.T  # jm[m, i] = J^i_m
    wedge2 = np.einsum("...i,mj->...mij", ja, jm) - np.einsum("...j,mi->...mij", ja, jm)
    return a - 0.5 * (wedge1 - wedge2)


def reconstruct_v_minus(beta: np.ndarray) -> np.ndarray:
    """B(beta)[..., m, i, j] in frame components."""
    jb = _j_form(beta)
    phi_m = PHI_F  # phi(e_m, .)_j = PHI_F[m, j]
    jphi_m = JPHI_F
    t = np.einsum("...i,mj->...mij", jb, phi_m) - np.einsum("...j,mi->...mij", jb, phi_m)
    t += np.einsum("...i,mj->...mij", beta, jphi_m) - np.einsum("...j,mi->...mij", beta, jphi_m)
    return t


def split_delta_wplus(dwp_frame: np.ndarray) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """Extract (alpha, beta) from frame components of delta W+, shape (P, 4, 4, 4),
    and report the completeness residual |delta W+ - A(alpha) - B(beta)|, at
    each point.

    gamma_m = <t_m, form> pairs each slot m with a 2-form by the half-norm
    inner product. The pairing with Omega is `algebra.form_pairing` over the
    batch: delta W+ comes strided out of `tensorops.frame_components`, and
    the gather adds each point's four terms in the order the per-point
    einsum it replaces did. The pairing of the C-ordered remainder with phi
    stays an einsum, which pairs its terms across SIMD lanes."""
    gamma = algebra.form_pairing(dwp_frame, 0)
    alpha = 0.5 * np.einsum("...m,ma->...a", gamma, J_FRAME)  # alpha_a = (1/2) gamma_m J^m_a
    a_part = reconstruct_v_plus(alpha)
    rem = dwp_frame - a_part
    gamma2 = 0.5 * np.einsum("...mij,ij->...m", rem, PHI_F)
    beta = 0.5 * np.einsum("...m,ma->...a", gamma2, J_FRAME)
    b_part = reconstruct_v_minus(beta)
    completeness = np.abs(dwp_frame - a_part - b_part).max(axis=(-3, -2, -1))
    return alpha, beta, completeness


def bach_direct(cd: CurvatureBatch) -> np.ndarray:
    """The Bach tensor from the full Weyl tensor, frame components, at each point."""
    if cd.conn.structure.order < 4:
        raise jets.JetOrderError("Bach tensor needs jet order 4")
    return cd.bach_routes[0]


def bach_gauduchon(cd: CurvatureBatch) -> tuple[np.ndarray, np.ndarray]:
    """The Bach tensor from each Weyl half separately, B = 2 * (half-expression), at each point."""
    if cd.conn.structure.order < 4:
        raise jets.JetOrderError("Bach tensor needs jet order 4")
    _, plus, minus = cd.bach_routes
    return 2.0 * plus, 2.0 * minus


def bach_almost_kahler(cd: CurvatureBatch) -> tuple[np.ndarray, np.ndarray]:
    """Closed-form Bach tensor for almost Kahler metrics with J-invariant Ricci,
    at each point.

    Returns (B, B_ricci_route) where

      B = -1/3 (nabla ds)^inv + 1/6 (nabla ds)^anti - (lap s / 12) g
          - (s/6) Ric0 + S,      S = sum_i (nabla_i rho0) o (nabla_i Omega),

    and B_ricci_route is the cross-check expression
      1/2 nabla*nabla Ric0 + (lap s / 24) g + 1/6 nabla ds + (s/6) Ric0 - W(Ric0).

    Both equal the Bach tensor only where the structure is almost Kahler and
    the Ricci tensor J-invariant; the caller decides where.
    """
    structure = cd.conn.structure
    if structure.order < 4:
        raise jets.JetOrderError("Bach tensor needs jet order 4")
    gamma, frame = cd.gamma, cd.frame
    hess = riemann.covd(gamma, jets.partials(cd.s)).value  # (nabla ds)_{mi}
    hess_f = tensorops.frame_components(hess, frame)
    hess_inv = algebra.j_invariant_part(hess_f)
    hess_anti = algebra.j_anti_part(hess_f)
    lap_s = -np.trace(hess_f, axis1=1, axis2=2)[:, None, None]

    ric0_f = cd.ric0_frame
    s_val = cd.s_value[:, None, None]

    # rho0_ij = J^k_i Ric0_kj, to first order: only the value of its covariant derivative is read
    rho0 = jets.contract(structure.J[cd.rows].truncate(1), cd.ric0.truncate(1), 0, 0)
    d_rho0 = tensorops.frame_components(riemann.covd(gamma, rho0).value, frame)
    # a compact copy in the value's axis order, for frame_components' matmul
    d_omega = tensorops.frame_components(cd.conn.nabla_omega.value[cd.rows].copy(order="K"), frame)
    # endomorphism composition in an orthonormal frame: (phi o psi)_ij = phi_nj psi_in
    s_tensor = np.einsum("pmnj,pmin->pij", d_rho0, d_omega)

    b_ak = -hess_inv / 3.0 + hess_anti / 6.0 - (lap_s / 12.0) * np.eye(4) - (s_val / 6.0) * ric0_f + s_tensor

    rough = -riemann.divergence(cd.g_inv, gamma, riemann.covd(gamma, cd.ric0), 0)
    lap_ric0 = tensorops.frame_components(rough.value, frame)
    w_f = tensorops.frame_components(cd.weyl.value, frame)
    # on the point axis: it keeps each point's bits (product-surfaces shows W(Ric0) != 0)
    w_ring = -np.einsum("pxaby,pab->pxy", w_f, ric0_f)
    b_ricci = 0.5 * lap_ric0 + (lap_s / 24.0) * np.eye(4) + hess_f / 6.0 + (s_val / 6.0) * ric0_f - w_ring
    return b_ak, b_ricci


def weitzenboeck_check(cd: CurvatureBatch, *fields: Jet) -> np.ndarray:
    """Residual of the 2-form Weitzenboeck identity at each point,

        Delta phi = nabla*nabla phi + (s/3) phi - 2 W(phi)

    for the fundamental 2-form and for each supplied 2-form field, with a
    point axis: one row of residuals per form, in that order. Both sides
    differentiate a form at most twice, so it enters at order 2. For Omega,
    nabla phi and nabla*nabla phi are the connection's cached `nabla_omega`
    and the trace of its `nabla2_omega`; for a field, nabla phi is formed
    and nabla*nabla phi is its codifferential. The rest runs on all the
    forms stacked on the point axis: nabla phi gives delta phi, one
    divergence gives the fields' nabla*nabla phi and every form's delta d
    phi, and the algebraic terms (s/3) phi and W(phi) are read as values
    only, so they are formed from order-0 truncations.
    """
    conn = cd.conn
    if conn.structure.order < 3:
        raise jets.JetOrderError("Weitzenboeck check needs jet order >= 3")
    fields = [field.truncate(J_SIDE_ORDER) for field in fields]
    nablas = [riemann.covd(cd.gamma, field) for field in fields]
    n, k = len(fields), 1 + len(fields)
    phi, g_inv = jets.concat([conn.structure.omega[cd.rows], *fields]), jets.concat([cd.g_inv] * k)
    # the fields' nabla*nabla phi, then every form's delta d phi: minus one
    # divergence of [nabla field..., d phi...], all rank 3 and order 1
    divs = -riemann.divergence(jets.concat([cd.g_inv] * (n + k)), jets.concat([cd.gamma] * (n + k)), jets.concat([*nablas, tensorops.ext_d_2form(phi)]), 0)
    cut = n * len(cd.frame)
    rough = jets.concat([riemann.neg_trace(cd.g_inv, conn.nabla2_omega[cd.rows]), divs[:cut]])
    delta_phi = riemann.neg_trace(g_inv, jets.concat([conn.nabla_omega[cd.rows], *nablas]))  # 1-form
    laplace = tensorops.ext_d_1form(delta_phi) + divs[cut:]
    phi0 = phi.truncate(0)
    w_phi = tensorops.form_inner(jets.concat([cd.weyl.truncate(0)] * k), phi0, g_inv.truncate(0), (2, 3))
    s0 = jets.concat([cd.s.truncate(0)] * k)
    rhs = rough + (s0[:, None, None] / 3.0) * phi0 - 2.0 * w_phi
    return np.abs(cd.frame_blocks((laplace - rhs).value, k)).max(axis=(2, 3))


def random_polynomial_2form(points: list[tuple[float, float, float, float]], order: int, seed: int) -> Jet:
    """Deterministic quadratic-coefficient 2-form field for identity tests,
    at each of the points, with a point axis.

    Each entry above the diagonal is a combination of the monomials 1, x1..x4,
    x1 x3, x2^2, x4 x1 and x3^2 with coefficients drawn uniformly from
    [-1, 1] and rounded to 6 decimals. The field is built at the order the
    Weitzenboeck check reads, min(order, J_SIDE_ORDER).
    """
    order = min(order, J_SIDE_ORDER)
    # a length-1 axis after the points, which the six entries broadcast along
    at = np.array(points)[:, None]
    x1, x2, x3, x4 = (Jet.coordinate(i, at, order) for i in range(4))
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
    out = np.zeros((len(points), 4, 4, val.c.shape[-1]))
    out[:, upper[0], upper[1]] = val.c
    out[:, upper[1], upper[0]] = -val.c
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


def second_order_report(cd: CurvatureBatch, hfo: FirstOrderBatch, closed: list[bool], weitzenboeck_seed: int) -> dict[str, list[float | None]]:
    """Every second-order residual at each point of a batch, one column per
    name, each formed on the point axis of each curvature slice
    (`CurvatureBatch.slices()`), whose second-order jets are formed a slice
    at a time. `closed` holds one bool per point, where the closed Bach
    forms' hypotheses hold; their columns are None elsewhere."""
    if cd.conn.structure.order < 4:
        raise jets.JetOrderError("second-order report needs jet order 4")
    residuals: dict[str, list[float | None]] = {}
    for part in cd.slices():
        for name, column in _slice_residuals(part, hfo, closed[part.rows], weitzenboeck_seed).items():
            residuals.setdefault(name, []).extend(column)
    return residuals


def _slice_residuals(cd: CurvatureBatch, hfo: FirstOrderBatch, closed: list[bool], weitzenboeck_seed: int) -> dict[str, list]:
    """The residual columns of the points of one curvature slice; the closed
    forms' columns hold None where `closed` is False."""
    rows = cd.rows
    c_jet = cotton_york(cd)
    # only the value of C+ is read: it is projected at order 0
    c0 = c_jet.truncate(0)
    c_plus = 0.5 * (c0 + jets.contract(c0, cd.star, (1, 2), (2, 3)))
    dw, dwp, _ = delta_weyl(cd)
    rank3 = (c_jet.value, dw.value, dwp.value, c_plus.value)
    c_f, dw_f, dwp_f, c_plus_f = cd.frame_blocks(np.concatenate(rank3), 4)

    # Lemma-type predictions for alpha and beta under J-invariant Ricci.
    rank1 = (jets.partials(cd.s).value, hfo.theta.value[rows], hfo.a.value[rows], hfo.b.value[rows])
    ds_f, theta_f, a_f, b_f = cd.frame_blocks(np.concatenate(rank1), 4)

    bd = bach_direct(cd)
    bp, bm = bach_gauduchon(cd)

    alpha, beta, completeness = split_delta_wplus(dwp_f)
    ric0_f = cd.ric0_frame
    alpha_pred = -ds_f / 12.0 + (0.5 * ric0_f @ theta_f[:, :, None])[:, :, 0]
    beta_pred = (-0.25 * ric0_f @ (a_f + _j_form(b_f))[:, :, None])[:, :, 0]
    # far from the origin the seeded field overflows; its NaN residual fails
    # the row, so the overflow is not also a warning
    with np.errstate(over="ignore", invalid="ignore"):
        field = random_polynomial_2form(cd.conn.structure.points[rows], cd.conn.structure.order, weitzenboeck_seed)
        weitzenboeck = weitzenboeck_check(cd, field)
    columns = {
        "delta W = C": _max_abs(dw_f - c_f),
        "delta W+ = C+": _max_abs(dwp_f - c_plus_f),
        "V+ + V- completeness": completeness.tolist(),
        "alpha formula": _max_abs(alpha - alpha_pred),
        "beta formula": _max_abs(beta - beta_pred),
        "bach symmetric": _max_abs(bd - np.swapaxes(bd, 1, 2)),
        "bach traceless": np.abs(np.trace(bd, axis1=1, axis2=2)).tolist(),
        "bach direct vs plus": _max_abs(bd - bp),
        "bach direct vs minus": _max_abs(bd - bm),
        "weitzenboeck omega": weitzenboeck[0].tolist(),
        "weitzenboeck random": weitzenboeck[1].tolist(),
        "beta norm": _max_abs(beta),
        "alpha norm": _max_abs(alpha),
    }
    # the closed forms run on the whole slice where any point satisfies their
    # hypotheses, and are reported at those points only
    forms = {"bach direct vs almost-kahler form": [None] * len(closed), "bach direct vs ricci form": [None] * len(closed)}
    if any(closed):
        for name, form in zip(forms, bach_almost_kahler(cd)):
            forms[name] = [value if holds else None for value, holds in zip(_max_abs(bd - form), closed)]
    return columns | forms


def _max_abs(x: np.ndarray) -> list[float]:
    """The largest |entry| of each point's block of x."""
    return np.abs(x).max(axis=tuple(range(1, x.ndim))).tolist()
