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

`connection`, `curvature` and `hermitian_first_order` run once per batch of
points (a command's points, up to `cli.BATCH_POINTS` at a time). Each takes
the records of all the batch's points, stacks their jets on a
leading point axis, computes with `jets.contract(..., points=True)`, a
point-axis `jets.partials` and a point-axis `tensorops.frame_components`, and
returns one record per point whose arrays are views of the batch; a single
point is a batch of one. Point k of a batch has, bit for bit, the values of a
batch of that point alone. The records of one batch share it: nabla Omega,
the traceless Ricci frame and the Nijenhuis tensor (`jets.per_batch`) are
computed for every point on the first read at any of them. What only a
report row or the second-order report reads stays per point: covariant
derivatives, divergences, the Weyl tensors, theta, a, b and the residuals
built on them, so `ak4 classify` never computes theta, a or b.
"""

from __future__ import annotations

from collections.abc import Sequence
from dataclasses import dataclass, field
from functools import cached_property

import numpy as np

from . import algebra, jets, tensorops
from .charts import StructurePoint
from .jets import Jet


@dataclass
class ConnectionData:
    """Christoffel jets and covariant differentiation of covariant tensors at one point."""

    sp: StructurePoint
    gamma: Jet  # Gamma[k, i, j] = Gamma^k_ij, order one below the metric
    batch: jets.Batch = field(repr=False)  # sps, gamma (stacked)
    index: int
    _gamma_terms: dict[int, tuple[Jet, Jet]] = field(default_factory=dict, init=False, repr=False)

    @jets.per_batch
    def nabla_omega(batch: jets.Batch) -> Jet:
        """nabla Omega, slots (m, i, j), formed for the whole batch: the first-order
        data, the Ricci identity and the Weitzenboeck check of Omega all read this one jet."""
        return _covd(batch.gamma, jets.stack([sp.omega for sp in batch.sps]), points=True)

    @cached_property
    def nabla2_omega(self) -> Jet:
        """nabla^2 Omega, slots (m, n, i, j), the covariant derivative of `nabla_omega`."""
        return self.covd(self.nabla_omega)

    def covd(self, t: Jet) -> Jet:
        """Covariant derivative of a fully covariant tensor of jets.

        The new derivative index comes first:
        (covd T)_{m, i1..ik} = d_m T_{i1..ik} - sum_a Gamma^p_{m i_a} T_{..p..}.
        """
        return _covd(self.gamma, t)

    def neg_trace(self, t: Jet) -> Jet:
        """-g^mn t_{m,n,...}: the codifferential of T when t = nabla T, the
        rough Laplacian nabla^* nabla T when t = nabla^2 T."""
        return -jets.contract(self.sp.g_inv, t, (0, 1), (0, 1))

    def gamma_terms(self, order: int) -> tuple[Jet, Jet]:
        """The Gamma-terms of a divergence whose result has `order`:
        v^p = g^mi Gamma^p_mi for its own slot and K[i, p, c] = g^mi Gamma^p_mc
        for every other slot, contracted at that order once per point."""
        terms = self._gamma_terms.get(order)
        if terms is None:
            g_inv, gamma = self.sp.g_inv.truncate(order), self.gamma.truncate(order)
            terms = self._gamma_terms[order] = (jets.contract(g_inv, gamma, (0, 1), (1, 2)), jets.contract(g_inv, gamma, 0, 1))
        return terms

    def divergence(self, t: Jet, slot: int = 0) -> Jet:
        """g^mi (nabla_m t)_{..i..} with i at `slot`, without forming nabla t.

        It is g^mi d_m t_{..i..} - v^p t_{..p..} - sum_{a != slot} K^ip_c t_{..i..p..}
        (p at slot a, c the free index there), with v and K of `gamma_terms`
        at the result's order. The other slots keep their order.
        """
        out = jets.contract(self.sp.g_inv, jets.partials(t), (0, 1), (0, slot + 1))
        low = t.truncate(out.order)
        trace, raised = self.gamma_terms(out.order)
        out = out - jets.contract(trace, low, 0, slot)
        for a in range(t.c.ndim - 1):
            if a != slot:
                term = jets.contract(raised, low, (0, 1), (slot, a))  # (c, other slots)
                out = out - jets.moveaxis(term, 0, a if a < slot else a - 1)
        return out

    def codifferential(self, t: Jet) -> Jet:
        """Negative divergence on the first slot."""
        return -self.divergence(t, 0)


def _covd(gamma: Jet, t: Jet, points: bool = False) -> Jet:
    """`ConnectionData.covd` with the Christoffel jets `gamma`, at every point with `points`."""
    out = jets.partials(t, points)
    for a in range(t.c.ndim - 1 - int(points)):
        term = jets.contract(gamma, jets.moveaxis(t, a, 0, points), 0, 0, points)  # (m, q, rest)
        out = out - jets.moveaxis(term, 1, a + 1, points)
    return out


def connection(sps: Sequence[StructurePoint]) -> list[ConnectionData]:
    """Levi-Civita connection of each structure point's metric, formed once
    over all the points; one record per point."""
    if sps[0].order < 1:
        raise jets.JetOrderError("connection needs jet order >= 1")
    g, g_inv = jets.stack([sp.g for sp in sps]), jets.stack([sp.g_inv for sp in sps])
    dg = jets.partials(g, points=True)  # dg[m, i, j] = d_m g_ij
    # Gamma^k_ij = 1/2 g^kl (d_i g_lj + d_j g_li - d_l g_ij)
    sym = jets.moveaxis(dg, (0, 1, 2), (1, 0, 2), True) + jets.moveaxis(dg, (0, 1, 2), (2, 1, 0), True) - dg
    gamma = 0.5 * jets.contract(g_inv, sym, 1, 0, points=True)
    batch = jets.Batch(ConnectionData, sps=sps, gamma=gamma)
    return [ConnectionData(sp=sp, gamma=gamma[k], batch=batch, index=k) for k, sp in enumerate(sps)]


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
    batch: jets.Batch = field(repr=False)  # ric_frame, s_value (stacked)
    index: int

    @jets.per_batch
    def ric0_frame(batch: jets.Batch) -> np.ndarray:
        """Frame components of the traceless Ricci tensor, formed for the whole batch."""
        return batch.ric_frame - (batch.s_value / 4.0)[:, None, None] * np.eye(4)

    @cached_property
    def ric0(self) -> Jet:
        return self.ric - 0.25 * (self.s * self.sp.g)

    @cached_property
    def h(self) -> Jet:
        """The normalized Ricci tensor h = (1/2)(Ric - s/6 g): Cotton-York
        differentiates it and each Bach route contracts it with its Weyl tensor."""
        return 0.5 * (self.ric - (self.s / 6.0) * self.sp.g)

    @cached_property
    def h_raised(self) -> Jet:
        """h^ab at order 0: the Bach routes read only its value."""
        g_inv0 = self.sp.g_inv.truncate(0)
        return tensorops.raise_pair(self.h.truncate(0), g_inv0, 0, 1)

    @cached_property
    def weyl(self) -> Jet:
        """Weyl tensor jets: R minus the scalar and traceless-Ricci blocks.

        R has two orders fewer than g, so g enters at R's order."""
        g = self.sp.g.truncate(self.R.order)
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

    @cached_property
    def _weyl_star(self) -> Jet:
        """The Hodge star of W's first pair, shared by W+ and W-."""
        return tensorops.hodge_star_2form(self.weyl, self.sp.g_inv, self.sp.mu)

    def _weyl_half(self, sign: float) -> Jet:
        sp = self.sp
        half = tensorops.dual_projection(self.weyl, sp.g_inv, sp.mu, sign, (0, 1), self._weyl_star)
        return tensorops.dual_projection(half, sp.g_inv, sp.mu, sign, (2, 3))


def curvature(conns: Sequence[ConnectionData]) -> list[CurvatureData]:
    """Riemann, Ricci and scalar curvature plus the operator on 2-forms,
    formed once over all the points; one record per point."""
    sps = [conn.sp for conn in conns]
    if sps[0].order < 2:
        raise jets.JetOrderError("curvature needs jet order >= 2")
    gamma = jets.stack([conn.gamma for conn in conns])
    dg = jets.partials(gamma, points=True)  # dg[m, l, i, j] = d_m Gamma^l_ij
    # [nabla_i, nabla_j] d_k = (d_i G^l_jk - d_j G^l_ik + G^l_im G^m_jk - G^l_jm G^m_ik) d_l
    t1 = jets.moveaxis(dg, (0, 1, 2, 3), (1, 0, 2, 3), True)  # t1[l, i, j, k] = d_i Gamma^l_jk
    # R is one order below Gamma, so the product needs Gamma only to that order
    gamma_low = gamma.truncate(dg.order)
    gg = jets.contract(gamma_low, gamma_low, 2, 0, points=True)  # gg[l, i, j, k] = G^l_im G^m_jk
    comm_up = t1 - jets.moveaxis(t1, 1, 2, True) + gg - jets.moveaxis(gg, 1, 2, True)
    g, g_inv = jets.stack([sp.g for sp in sps]), jets.stack([sp.g_inv for sp in sps])
    riem = -jets.moveaxis(jets.contract(g, comm_up, 0, 0, points=True), 0, 3, True)  # R_ijkl (sphere-positive)
    ric = jets.contract(g_inv, riem, (0, 1), (0, 2), points=True)  # Ric_jk = g^im R_ijmk
    s = jets.contract(g_inv, ric, (0, 1), (0, 1), points=True)

    frame = np.stack([sp.frame for sp in sps])
    R_frame = tensorops.frame_components(riem.value, frame)
    ric_frame = tensorops.frame_components(ric.value, frame)
    operator = algebra.operator_matrix(R_frame)
    batch = jets.Batch(CurvatureData, ric_frame=ric_frame, s_value=s.value)
    return [
        CurvatureData(
            sp=sp,
            conn=conn,
            R=riem[k],
            ric=ric[k],
            s=s[k],
            R_frame=R_frame[k],
            ric_frame=ric_frame[k],
            s_value=float(s.value[k]),
            operator=operator[k],
            batch=batch,
            index=k,
        )
        for k, (sp, conn) in enumerate(zip(sps, conns))
    ]


# -- first-order almost Hermitian invariants -----------------------------------


@dataclass
class HermitianFirstOrder:
    """nabla J data: Lee form, Nijenhuis tensor, and the 1-forms a, b with
    nabla J = a (x) I + b (x) (J o I), where I is the anti-commuting structure
    whose fundamental form is the gauge phi. nabla Omega itself is
    `conn.nabla_omega`."""

    conn: ConnectionData
    nabla_j_sq: float  # |nabla J|^2, full tensor norm
    d_omega_norm: float
    batch: jets.Batch = field(repr=False)  # sps, frame (stacked)
    index: int

    @property
    def is_almost_kahler(self) -> bool:
        return self.d_omega_norm < 1e-9

    @jets.per_batch
    def nijenhuis(batch: jets.Batch) -> Jet:
        """The Nijenhuis tensor, formed for the whole batch."""
        return _nijenhuis(jets.stack([sp.J.truncate(1) for sp in batch.sps]), jets.stack([sp.g.truncate(0) for sp in batch.sps]))

    @jets.per_batch
    def nijenhuis_norm(batch: jets.Batch) -> list[float]:
        """|N|, formed for the whole batch: the verdict ladder reads it."""
        return _frame_max(batch.nijenhuis.value, batch.frame).tolist()

    @cached_property
    def theta(self) -> Jet:
        """The Lee form theta = J(delta Omega), (J alpha)(X) = -alpha(JX)."""
        delta_omega = self.conn.neg_trace(self.conn.nabla_omega)
        return -jets.contract(delta_omega, self.conn.sp.J, 0, 0)

    @cached_property
    def a(self) -> Jet:
        """a(X) = <nabla_X Omega, phi> / |phi|^2, and `b` likewise with J phi."""
        sp = self.conn.sp
        return 0.5 * tensorops.form_inner(self.conn.nabla_omega, sp.phi, sp.g_inv, (1, 2))

    @cached_property
    def b(self) -> Jet:
        sp = self.conn.sp
        return 0.5 * tensorops.form_inner(self.conn.nabla_omega, sp.jphi, sp.g_inv, (1, 2))

    @cached_property
    def theta_norm(self) -> float:
        return float(_frame_max(self.theta.value, self.conn.sp.frame))

    @cached_property
    def b_plus_ja_norm(self) -> float:
        ja = -jets.contract(self.a, self.conn.sp.J, 0, 0)  # (J a)_i = -a_k J^k_i
        return float(_frame_max((self.b + ja).value, self.conn.sp.frame))

    @cached_property
    def identity_residual(self) -> float:
        """nabla_X J vs its Lee-form/Nijenhuis reconstruction."""
        return _nabla_j_identity_residual(self.conn.sp, self.conn.nabla_omega, self.theta, self.nijenhuis)


def hermitian_first_order(conns: Sequence[ConnectionData]) -> list[HermitianFirstOrder]:
    """|nabla J|^2 and |d Omega|, the first-order values every command reads,
    formed once over all the points; one record per point."""
    frame = np.stack([conn.sp.frame for conn in conns])
    nabla_omega = tensorops.frame_components(np.stack([conn.nabla_omega.value for conn in conns]), frame)
    nabla_j_sq = np.sum(nabla_omega * nabla_omega, axis=(1, 2, 3))
    d_omega = tensorops.ext_d_2form(jets.stack([conn.sp.omega for conn in conns]), points=True)
    d_omega_norm = _frame_max(d_omega.value, frame)
    batch = jets.Batch(HermitianFirstOrder, sps=[conn.sp for conn in conns], frame=frame)
    values = zip(conns, nabla_j_sq.tolist(), d_omega_norm.tolist())
    return [HermitianFirstOrder(conn, sq, d, batch, k) for k, (conn, sq, d) in enumerate(values)]


def _frame_max(values: np.ndarray, frame: np.ndarray) -> np.ndarray:
    """Max-norm of the frame components of a tensor value, at each point when
    the frame (and the value) carries a leading point axis."""
    components = np.abs(tensorops.frame_components(values, frame))
    return components.max(axis=tuple(range(frame.ndim - 2, components.ndim)))


def _nijenhuis(J: Jet, g: Jet) -> Jet:
    """N_X(Y, Z) = g([JY,JZ] - [Y,Z] - J[JY,Z] - J[Y,JZ], X) on coordinate fields,
    at each point of the point axis of J and g.

    Only its value is read, so J enters to first order and g as a value."""
    dJ = jets.partials(J, points=True)  # dJ[m, i, j] = d_m J^i_j
    # D[y, z, n] = J^m_y d_m J^n_z, so [J d_y, J d_z]^n = D[y,z,n] - D[z,y,n]
    d_field = jets.moveaxis(jets.contract(J, dJ, 0, 0, points=True), 1, 2, True)
    br_jj = d_field - jets.moveaxis(d_field, 0, 1, True)
    # [J d_y, d_z]^n = -d_z J^n_y and [d_y, J d_z]^n = +d_y J^n_z
    p1 = jets.moveaxis(dJ, (0, 1, 2), (1, 2, 0), True)  # p1[y, z, n] = d_z J^n_y
    p2 = jets.moveaxis(dJ, (0, 1, 2), (0, 2, 1), True)  # p2[y, z, n] = d_y J^n_z

    def apply_j(v: Jet) -> Jet:  # rotate the vector index: (J v)^q = J^q_n v^n
        return jets.moveaxis(jets.contract(J, v, 1, 2, points=True), 0, 2, True)

    total_up = br_jj + apply_j(p1) - apply_j(p2)  # [d_y, d_z] = 0
    return jets.contract(g, total_up, 0, 2, points=True)  # N[x, y, z] = g_nx W[y, z, n]


def _nabla_j_identity_residual(sp: StructurePoint, nabla_omega: Jet, theta: Jet, nij: Jet) -> float:
    """Residual of nabla_X J = 1/2 (X ^ J theta + JX ^ theta) + 1/2 N_{JX},
    with both sides read as 2-forms through Omega."""
    J = sp.J
    jtheta = -jets.contract(theta, J, 0, 0)
    xb = sp.g  # X^flat for X = d_m is the row g_{m .}
    lhs = nabla_omega.value
    term1 = np.einsum("mi,j->mij", xb.value, jtheta.value) - np.einsum("mj,i->mij", xb.value, jtheta.value)
    jxb = sp.omega.value  # (J d_m)^flat_i = J^k_m g_ki = Omega_mi
    term2 = np.einsum("mi,j->mij", jxb, theta.value) - np.einsum("mj,i->mij", jxb, theta.value)
    njx = np.einsum("km,kij->mij", J.value, nij.value)  # N_{J d_m}(d_i, d_j)
    rhs = 0.5 * (term1 + term2) + 0.5 * njx
    return float(_frame_max(lhs - rhs, sp.frame))


def ricci_identity_check(cd: CurvatureData) -> float:
    """Max-norm residual of the commuted second derivative of Omega:

    (nabla^2_{X,Y} - nabla^2_{Y,X})(Omega)(Z, T) = -R_{X,Y,JZ,T} - R_{X,Y,Z,JT}.
    """
    sp = cd.sp
    dd = cd.conn.nabla2_omega  # (m, n, i, j)
    lhs = dd.value - np.moveaxis(dd.value, 0, 1)
    rv = cd.R.value
    jv = sp.J.value
    rhs = -np.einsum("mnkj,ki->mnij", rv, jv) - np.einsum("mnik,kj->mnij", rv, jv)
    return float(_frame_max(lhs - rhs, sp.frame))
