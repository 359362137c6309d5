"""Levi-Civita connection, curvature, and first-order almost Hermitian invariants.

Sign conventions (calibrated so a round sphere factor has positive
sectional curvature, see the product-surfaces tests):

  * Christoffel symbols Gamma^k_ij = (1/2) g^kl (d_i g_lj + d_j g_li - d_l g_ij).
  * The stored (0,4) curvature tensor R satisfies
        R(X, Y, X, Y) = sectional curvature of the plane X ^ Y
    for orthonormal X, Y; in coordinates
        R_ijkl = -g_lm (d_i Gamma^m_jk - d_j Gamma^m_ik
                        + Gamma^m_ip Gamma^p_jk - Gamma^m_jp Gamma^p_ik).
  * Ricci: Ric_jk = g^im R_ijmk, positive for the round sphere.
  * As an endomorphism of 2-forms, (R phi)_ij = (1/2) R_ijkl phi^kl; with the
    half-tensor-norm inner product this is a symmetric operator whose trace
    is s/2, and the curvature operator of the unit 4-sphere is the identity.
  * Codifferentials are negative divergences, delta = -sum_i iota(e_i) nabla_i,
    so the Lee form theta = J(delta Omega) vanishes on Kahler charts.

Covariant differentiation consumes one jet order per derivative and raises
JetOrderError rather than silently truncating when the order is exhausted.
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import cached_property

import numpy as np

from . import jets, tensorops
from .charts import FRAME_FORMS, StructurePoint
from .jets import Jet


@dataclass
class ConnectionData:
    """Christoffel jets and covariant differentiation of covariant tensors."""

    sp: StructurePoint
    gamma: Jet  # Gamma[k, i, j] = Gamma^k_ij, order one below the metric

    def covd(self, t: Jet) -> Jet:
        """Covariant derivative of a fully covariant tensor of jets.

        The new derivative index comes first:
        (covd T)_{m, i1..ik} = d_m T_{i1..ik} - sum_a Gamma^p_{m i_a} T_{..p..}.
        """
        k = t.c.ndim - 1
        out = jets.partials(t)
        for a in range(k):
            term = jets.contract(self.gamma, jets.moveaxis(t, a, 0), 0, 0)  # (m, q, rest)
            out = out - jets.moveaxis(term, 1, a + 1)
        return out

    def covd2(self, t: Jet) -> Jet:
        """Second covariant derivative nabla^2_{m,n} with indices (m, n, ...)."""
        return self.covd(self.covd(t))

    def rough_laplacian(self, t: Jet) -> Jet:
        """nabla^* nabla t = -g^mn (covd2 t)_{m,n,...}."""
        dd = self.covd2(t)
        return -jets.contract(self.sp.g_inv, dd, (0, 1), (0, 1))

    def codifferential(self, t: Jet) -> Jet:
        """Negative divergence on the first slot: -g^mi (covd t)_{m,i,...}."""
        return -jets.contract(self.sp.g_inv, self.covd(t), (0, 1), (0, 1))


def connection(sp: StructurePoint) -> ConnectionData:
    """Levi-Civita connection of the structure point's metric."""
    if sp.order < 1:
        raise jets.JetOrderError("connection needs jet order >= 1")
    dg = jets.partials(sp.g)  # dg[m, i, j] = d_m g_ij
    # Gamma^k_ij = 1/2 g^kl (d_i g_lj + d_j g_li - d_l g_ij)
    sym = jets.moveaxis(dg, (0, 1, 2), (1, 0, 2)) + jets.moveaxis(dg, (0, 1, 2), (2, 1, 0)) - dg
    gamma = 0.5 * jets.contract(sp.g_inv, sym, 1, 0)
    return ConnectionData(sp=sp, gamma=gamma)


@dataclass
class CurvatureData:
    """Curvature of a chart point: coordinate jets, frame components, operator."""

    sp: StructurePoint
    conn: ConnectionData
    R: Jet  # (0,4) coordinate jets, conventions in the module docstring
    ric: Jet
    s: Jet
    R_frame: np.ndarray
    ric_frame: np.ndarray
    s_value: float
    operator: np.ndarray  # 6x6 matrix on the (Omega, phi, Jphi, asd triple) basis

    @property
    def ric0_frame(self) -> np.ndarray:
        return self.ric_frame - (self.s_value / 4.0) * np.eye(4)

    @cached_property
    def ric0(self) -> Jet:
        return self.ric - 0.25 * (self.s * self.sp.g)

    @cached_property
    def weyl(self) -> Jet:
        """Weyl tensor jets: R minus the scalar and traceless-Ricci blocks."""
        g = self.sp.g
        scalar_part = jets.outer(self.s / 24.0, tensorops.kn_jet(g, g))
        ric0_part = 0.5 * tensorops.kn_jet(self.ric0, g)
        return self.R - scalar_part - ric0_part

    @cached_property
    def weyl_plus(self) -> Jet:
        return self._weyl_half(+1.0)

    @cached_property
    def weyl_minus(self) -> Jet:
        return self._weyl_half(-1.0)

    @cached_property
    def delta_weyl(self) -> Jet:
        """Codifferential of the Weyl tensor, slots (X; Y, Z)."""
        return self.conn.codifferential(self.weyl)

    @cached_property
    def delta_weyl_plus(self) -> Jet:
        """Codifferential of W+, computed from W+ itself (never as delta W - delta W-)."""
        return self.conn.codifferential(self.weyl_plus)

    @cached_property
    def delta_weyl_minus(self) -> Jet:
        """Codifferential of W-, computed from W- itself."""
        return self.conn.codifferential(self.weyl_minus)

    def _weyl_half(self, sign: float) -> Jet:
        sp = self.sp
        half = tensorops.dual_projection(self.weyl, sp.g_inv, sp.mu, sign, (0, 1))
        return tensorops.dual_projection(half, sp.g_inv, sp.mu, sign, (2, 3))

    def operator_of(self, t_frame: np.ndarray) -> np.ndarray:
        """6x6 matrix of a curvature-type tensor given in frame components."""
        return np.einsum("ijkl,aij,bkl->ab", t_frame, FRAME_FORMS, FRAME_FORMS) / 8.0

    def invariant_residuals(self) -> dict[str, float]:
        """Symmetry, first-Bianchi, operator-symmetry and metric-compatibility residuals."""
        rf = self.R_frame
        scale = max(1.0, float(np.abs(rf).max()))
        res = {
            "antisymmetry (first pair)": float(np.abs(rf + rf.transpose(1, 0, 2, 3)).max()),
            "antisymmetry (second pair)": float(np.abs(rf + rf.transpose(0, 1, 3, 2)).max()),
            "pair symmetry": float(np.abs(rf - rf.transpose(2, 3, 0, 1)).max()),
            "first Bianchi": float(np.abs(rf + rf.transpose(0, 2, 3, 1) + rf.transpose(0, 3, 1, 2)).max()),
            "operator symmetric": float(np.abs(self.operator - self.operator.T).max()),
        }
        nabla_g = self.conn.covd(self.sp.g)
        res["metric compatibility"] = float(np.abs(nabla_g.value).max())
        res["scale"] = scale
        return res


def curvature(conn: ConnectionData) -> CurvatureData:
    """Riemann, Ricci and scalar curvature plus the operator on 2-forms."""
    sp = conn.sp
    if sp.order < 2:
        raise jets.JetOrderError("curvature needs jet order >= 2")
    gamma = conn.gamma
    dg = jets.partials(gamma)  # dg[m, l, i, j] = d_m Gamma^l_ij
    # [nabla_i, nabla_j] d_k = (d_i G^l_jk - d_j G^l_ik + G^l_im G^m_jk - G^l_jm G^m_ik) d_l
    t1 = jets.moveaxis(dg, (0, 1, 2, 3), (1, 0, 2, 3))  # t1[l, i, j, k] = d_i Gamma^l_jk
    gg = jets.contract(gamma, gamma, 2, 0)  # gg[l, i, j, k] = G^l_im G^m_jk
    comm_up = t1 - jets.moveaxis(t1, 1, 2) + gg - jets.moveaxis(gg, 1, 2)
    riem = -jets.moveaxis(jets.contract(sp.g, comm_up, 0, 0), 0, 3)  # R_ijkl (sphere-positive)
    ric = jets.contract(sp.g_inv, riem, (0, 1), (0, 2))  # Ric_jk = g^im R_ijmk
    s = jets.contract(sp.g_inv, ric, (0, 1), (0, 1))

    frame = sp.frame
    R_frame = tensorops.frame_components(riem.value, frame)
    ric_frame = tensorops.frame_components(ric.value, frame)
    operator = np.einsum("ijkl,aij,bkl->ab", R_frame, FRAME_FORMS, FRAME_FORMS) / 8.0
    return CurvatureData(
        sp=sp,
        conn=conn,
        R=riem,
        ric=ric,
        s=s,
        R_frame=R_frame,
        ric_frame=ric_frame,
        s_value=float(s.value),
        operator=operator,
    )


# -- first-order almost Hermitian invariants -----------------------------------


@dataclass
class HermitianFirstOrder:
    """nabla J data: covariant derivative of Omega, Lee form, Nijenhuis tensor,
    and the 1-forms a, b with nabla J = a (x) I + b (x) (J o I), where I is
    the anti-commuting structure whose fundamental form is the gauge phi."""

    sp: StructurePoint
    conn: "ConnectionData"
    nabla_omega: Jet  # (m, i, j)
    d_omega: Jet
    theta: Jet
    nijenhuis: Jet  # N[x, y, z] = N_{d_x}(d_y, d_z)
    a: Jet
    b: Jet
    nabla_j_sq: float  # |nabla J|^2, full tensor norm
    d_omega_norm: float
    theta_norm: float
    nijenhuis_norm: float
    b_plus_ja_norm: float
    identity_residual: float  # nabla_X J vs Lee-form/Nijenhuis reconstruction

    @property
    def is_almost_kahler(self) -> bool:
        return self.d_omega_norm < 1e-9


def hermitian_first_order(sp: StructurePoint, cd_or_conn) -> HermitianFirstOrder:
    """First-order invariants of the almost Hermitian structure at a point."""
    conn = cd_or_conn.conn if isinstance(cd_or_conn, CurvatureData) else cd_or_conn
    if sp.order < 1:
        raise jets.JetOrderError("first-order invariants need jet order >= 1")
    basis = sp.basis
    nabla_omega = conn.covd(sp.omega)
    d_omega = tensorops.ext_d_2form(sp.omega)
    delta_omega = conn.codifferential(sp.omega)
    # theta = J(delta Omega), (J alpha)(X) = -alpha(JX)
    theta = -jets.contract(delta_omega, sp.J, 0, 0)

    # a(X) = <nabla_X Omega, phi> / |phi|^2, b likewise with J phi
    a = 0.5 * _form_inner_slots(nabla_omega, basis.phi, sp.g_inv)
    b = 0.5 * _form_inner_slots(nabla_omega, basis.jphi, sp.g_inv)

    nij = _nijenhuis(sp)
    identity_residual = _nabla_j_identity_residual(sp, nabla_omega, theta, nij)

    frame = sp.frame
    no_f = tensorops.frame_components(nabla_omega.value, frame)
    nabla_j_sq = float(np.sum(no_f * no_f))
    d_omega_f = tensorops.frame_components(d_omega.value, frame)
    theta_f = tensorops.frame_components(theta.value, frame)
    nij_f = tensorops.frame_components(nij.value, frame)
    ja = -jets.contract(a, sp.J, 0, 0)  # (J a)_i = -a_k J^k_i
    b_plus_ja = tensorops.frame_components((b + ja).value, frame)

    return HermitianFirstOrder(
        sp=sp,
        conn=conn,
        nabla_omega=nabla_omega,
        d_omega=d_omega,
        theta=theta,
        nijenhuis=nij,
        a=a,
        b=b,
        nabla_j_sq=nabla_j_sq,
        d_omega_norm=float(np.abs(d_omega_f).max()),
        theta_norm=float(np.abs(theta_f).max()),
        nijenhuis_norm=float(np.abs(nij_f).max()),
        b_plus_ja_norm=float(np.abs(b_plus_ja).max()),
        identity_residual=identity_residual,
    )


def _form_inner_slots(t3: Jet, form: Jet, ginv: Jet) -> Jet:
    """Half-norm inner product <t3_m, form> over the last two slots of a (0,3) tensor."""
    up = tensorops.raise_pair(form, ginv, 0, 1)
    return 0.5 * jets.contract(t3, up, (1, 2), (0, 1))


def _nijenhuis(sp: StructurePoint) -> Jet:
    """N_X(Y, Z) = g([JY,JZ] - [Y,Z] - J[JY,Z] - J[Y,JZ], X) on coordinate fields."""
    J = sp.J
    dJ = jets.partials(J)  # dJ[m, i, j] = d_m J^i_j
    # D[y, z, n] = J^m_y d_m J^n_z, so [J d_y, J d_z]^n = D[y,z,n] - D[z,y,n]
    d_field = jets.moveaxis(jets.contract(J, dJ, 0, 0), 1, 2)
    br_jj = d_field - jets.moveaxis(d_field, 0, 1)
    # [J d_y, d_z]^n = -d_z J^n_y and [d_y, J d_z]^n = +d_y J^n_z
    p1 = jets.moveaxis(dJ, (0, 1, 2), (1, 2, 0))  # p1[y, z, n] = d_z J^n_y
    p2 = jets.moveaxis(dJ, (0, 1, 2), (0, 2, 1))  # p2[y, z, n] = d_y J^n_z

    def apply_j(v: Jet) -> Jet:  # rotate the vector index: (J v)^q = J^q_n v^n
        return jets.moveaxis(jets.contract(J, v, 1, 2), 0, 2)

    total_up = br_jj + apply_j(p1) - apply_j(p2)  # [d_y, d_z] = 0
    return jets.contract(sp.g, total_up, 0, 2)  # N[x, y, z] = g_nx W[y, z, n]


def _nabla_j_identity_residual(sp: StructurePoint, nabla_omega: Jet, theta: Jet, nij: Jet) -> float:
    """Residual of nabla_X J = 1/2 (X ^ J theta + JX ^ theta) + 1/2 N_{JX},
    with both sides read as 2-forms through Omega."""
    J = sp.J
    jtheta = -jets.contract(theta, J, 0, 0)
    xb = sp.g  # X^flat for X = d_m is the row g_{m .}
    lhs = nabla_omega.value
    term1 = np.einsum("mi,j->mij", xb.value, jtheta.value) - np.einsum("mj,i->mij", xb.value, jtheta.value)
    jxb = jets.contract(J, sp.g, 0, 0).value  # (J d_m)^flat_i = J^k_m g_ki
    term2 = np.einsum("mi,j->mij", jxb, theta.value) - np.einsum("mj,i->mij", jxb, theta.value)
    njx = np.einsum("km,kij->mij", J.value, nij.value)  # N_{J d_m}(d_i, d_j)
    rhs = 0.5 * (term1 + term2) + 0.5 * njx
    frame = sp.frame
    return float(np.abs(tensorops.frame_components(lhs - rhs, frame)).max())


def ricci_identity_check(sp: StructurePoint, cd: CurvatureData) -> float:
    """Max-norm residual of the commuted second derivative of Omega:

    (nabla^2_{X,Y} - nabla^2_{Y,X})(Omega)(Z, T) = -R_{X,Y,JZ,T} - R_{X,Y,Z,JT}.
    """
    dd = cd.conn.covd2(sp.omega)  # (m, n, i, j)
    lhs = dd.value - np.moveaxis(dd.value, 0, 1)
    rv = cd.R.value
    jv = sp.J.value
    rhs = -np.einsum("mnkj,ki->mnij", rv, jv) - np.einsum("mnik,kj->mnij", rv, jv)
    return float(np.abs(tensorops.frame_components(lhs - rhs, sp.frame)).max())
