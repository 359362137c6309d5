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
batch of that point alone. The records of one batch share it: what only
some commands read is a `jets.per_batch` value, computed for every point of
the batch on the first read at any of them, so `ak4 classify` never
computes theta, a or b. These are nabla Omega and nabla^2 Omega, the
traceless Ricci frame, the Nijenhuis tensor, theta, a and b (values, built
from order-0 truncations), and the jets of the second-order report: Ric0,
h, the Weyl tensor, its halves and their codifferentials. `curvature`
gives each slice of CURVATURE_SLICE points a batch of its own, so those
jets are formed a slice at a time. `covd`, `neg_trace` and `divergence`
take the point axis as `jets.contract` does. The report rows that read 4x4
frame values, the Ricci identity (`ricci_identity_check`) and the nabla J
identity (`HermitianFirstOrder.identity_residual`), run on the point axis
too, once per batch, each with the bits of a batch of one.
"""

from __future__ import annotations

from collections.abc import Sequence
from dataclasses import dataclass, field

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

    @jets.per_batch
    def nabla_omega(batch: jets.Batch) -> Jet:
        """nabla Omega, slots (m, i, j), formed for the whole batch: the first-order
        data, the Ricci identity and the Weitzenboeck check of Omega all read this one jet."""
        return covd(batch.gamma, jets.stack([sp.omega for sp in batch.sps]), points=True)

    @jets.per_batch
    def nabla2_omega(batch: jets.Batch) -> Jet:
        """nabla^2 Omega, slots (m, n, i, j), the covariant derivative of
        `nabla_omega`, formed for the whole batch."""
        return covd(batch.gamma, batch.nabla_omega, points=True)

    def covd(self, t: Jet) -> Jet:
        """Covariant derivative of a fully covariant tensor of jets at the point (`covd`)."""
        return covd(self.gamma, t)


def covd(gamma: Jet, t: Jet, points: bool = False) -> Jet:
    """Covariant derivative of a fully covariant tensor of jets with the
    Christoffel jets `gamma`, at every point with `points`.

    The new derivative index comes first:
    (covd T)_{m, i1..ik} = d_m T_{i1..ik} - sum_a Gamma^p_{m i_a} T_{..p..}.
    """
    out = jets.partials(t, points)
    for a in range(t.c.ndim - 1 - int(points)):
        term = jets.contract(gamma, jets.moveaxis(t, a, 0, points), 0, 0, points)  # (m, q, rest)
        out = out - jets.moveaxis(term, 1, a + 1, points)
    return out


def neg_trace(g_inv: Jet, t: Jet, points: bool = False) -> Jet:
    """-g^mn t_{m,n,...}, at every point with `points`: the codifferential of
    T when t = nabla T, the rough Laplacian nabla^* nabla T when t = nabla^2 T."""
    return -jets.contract(g_inv, t, (0, 1), (0, 1), points)


def divergence(g_inv: Jet, gamma: Jet, terms: dict, t: Jet, slot: int = 0, points: bool = False) -> Jet:
    """g^mi (nabla_m t)_{..i..} with i at `slot`, at every point with `points`.

    It is g^mi d_m t_{..i..} - v^p t_{..p..} - sum_{a != slot} K^ip_c t_{..i..p..}
    (p at slot a, c the free index there), with v^p = g^mi Gamma^p_mi and
    K[i, p, c] = g^mi Gamma^p_mc at the result's order, so nabla t is never
    formed. v and K are kept in `terms` by order, so each is contracted once
    per (g_inv, gamma) and order. The other slots keep their order.
    """
    out = jets.contract(g_inv, jets.partials(t, points), (0, 1), (0, slot + 1), points)
    low = t.truncate(out.order)
    if out.order not in terms:
        g_low, gamma_low = g_inv.truncate(out.order), gamma.truncate(out.order)
        terms[out.order] = (jets.contract(g_low, gamma_low, (0, 1), (1, 2), points), jets.contract(g_low, gamma_low, 0, 1, points))
    trace, raised = terms[out.order]
    out = out - jets.contract(trace, low, 0, slot, points)
    for a in range(t.c.ndim - 1 - int(points)):
        if a != slot:
            term = jets.contract(raised, low, (0, 1), (slot, a), points)  # (c, other slots)
            out = out - jets.moveaxis(term, 0, a if a < slot else a - 1, points)
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
    """Curvature of a chart point: coordinate jets, frame components, operator.

    The second-order report's jets, the traceless Ricci tensor, h, the Weyl
    tensor, its halves and their codifferentials, are `jets.per_batch`:
    the first read at any point forms them for the whole batch, on the
    batch's stacked jets (see `curvature`)."""

    sp: StructurePoint
    conn: ConnectionData
    R: Jet  # (0,4) coordinate jets, conventions in the module docstring
    ric: Jet
    s: Jet
    R_frame: np.ndarray
    ric_frame: np.ndarray
    s_value: float
    operator: np.ndarray  # 6x6 matrix on the (Omega, phi, Jphi, asd triple) basis
    # sps, conns, g and g_inv (at R's order), R, ric, s, frame, ric_frame, s_value (stacked), terms (`divergence`)
    batch: jets.Batch = field(repr=False)
    index: int

    @jets.per_batch
    def ric0_frame(batch: jets.Batch) -> np.ndarray:
        """Frame components of the traceless Ricci tensor, formed for the whole batch."""
        return batch.ric_frame - (batch.s_value / 4.0)[:, None, None] * np.eye(4)

    @jets.per_batch
    def ric0(batch: jets.Batch) -> Jet:
        return batch.ric - 0.25 * (batch.s[:, None, None] * batch.g)

    @jets.per_batch
    def h(batch: jets.Batch) -> Jet:
        """The normalized Ricci tensor h = (1/2)(Ric - s/6 g): Cotton-York
        differentiates it and each Bach route contracts it with its Weyl tensor."""
        return 0.5 * (batch.ric - (batch.s / 6.0)[:, None, None] * batch.g)

    @jets.per_batch
    def h_raised(batch: jets.Batch) -> Jet:
        """h^ab at order 0: the Bach routes read only its value."""
        return tensorops.raise_pair(batch.h.truncate(0), batch.g_inv.truncate(0), 0, 1, points=True)

    @jets.per_batch
    def weyl(batch: jets.Batch) -> Jet:
        """Weyl tensor jets: R minus the scalar and traceless-Ricci blocks.

        R has two orders fewer than g, so g enters at R's order."""
        g = batch.g.truncate(batch.R.order)
        scalar_part = jets.outer(batch.s / 24.0, tensorops.kn_jet(g, g, True), True)
        ric0_part = 0.5 * tensorops.kn_jet(batch.ric0, g, True)
        return batch.R - scalar_part - ric0_part

    @jets.per_batch
    def weyl_plus(batch: jets.Batch) -> Jet:
        return _weyl_half(batch, +1.0)

    @jets.per_batch
    def weyl_minus(batch: jets.Batch) -> Jet:
        return _weyl_half(batch, -1.0)

    @jets.per_batch
    def delta_weyl(batch: jets.Batch) -> Jet:
        """Codifferential of the Weyl tensor, slots (X; Y, Z)."""
        return -divergence(batch.g_inv, batch.gamma, batch.terms, batch.weyl, 0, True)

    @jets.per_batch
    def delta_weyl_plus(batch: jets.Batch) -> Jet:
        """Codifferential of W+, computed from W+ itself (never as delta W - delta W-)."""
        return -divergence(batch.g_inv, batch.gamma, batch.terms, batch.weyl_plus, 0, True)

    @jets.per_batch
    def delta_weyl_minus(batch: jets.Batch) -> Jet:
        """Codifferential of W-, computed from W- itself."""
        return -divergence(batch.g_inv, batch.gamma, batch.terms, batch.weyl_minus, 0, True)

    @jets.per_batch
    def gamma(batch: jets.Batch) -> Jet:
        """The Christoffel jets at the curvature's order, the most the batch's
        covariant derivatives and divergences read."""
        return jets.stack([conn.gamma.truncate(batch.R.order) for conn in batch.conns])

    @jets.per_batch
    def _mu(batch: jets.Batch) -> Jet:
        """The structure points' volume forms: a view of their structure batch's
        stacked mu, whose points the curvature batch's are, consecutively."""
        first = batch.sps[0]
        if any(sp.batch is not first.batch or sp.index != first.index + k for k, sp in enumerate(batch.sps)):
            raise ValueError("expected consecutive structure points of one batch")
        return first.batch.mu[first.index : first.index + len(batch.sps)]

    @jets.per_batch
    def _weyl_star(batch: jets.Batch) -> Jet:
        """The Hodge star of W's first pair, shared by W+ and W-."""
        return tensorops.hodge_star_2form(batch.weyl, batch.g_inv, batch._mu, points=True)


def _weyl_half(batch: jets.Batch, sign: float) -> Jet:
    half = tensorops.dual_projection(batch.weyl, batch.g_inv, batch._mu, sign, (0, 1), batch._weyl_star, points=True)
    return tensorops.dual_projection(half, batch.g_inv, batch._mu, sign, (2, 3), points=True)


def batch_of(cds: Sequence[CurvatureData]) -> jets.Batch:
    """The batch that the curvature records `cds` make up, all of it and in order."""
    batch = cds[0].batch
    if len(cds) != len(batch.s_value) or any(cd.batch is not batch or cd.index != k for k, cd in enumerate(cds)):
        raise ValueError("expected all the curvature records of one batch, in order")
    return batch


#: The most points that share a CurvatureData batch. The second-order jets
#: (`CurvatureData` per-batch values, and the report built on them) are
#: formed a slice of this many points at a time: their temporaries grow with
#: the points formed at once, and past a few points a larger slice saves little.
CURVATURE_SLICE = 8


def curvature(conns: Sequence[ConnectionData]) -> list[CurvatureData]:
    """Riemann, Ricci and scalar curvature plus the operator on 2-forms,
    formed once over all the points; one record per point, the records of
    each CURVATURE_SLICE points sharing a batch."""
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
    # every later product and the batch's readers take g and g^-1 at R's order
    g, g_inv = jets.stack([sp.g.truncate(dg.order) for sp in sps]), jets.stack([sp.g_inv.truncate(dg.order) for sp in sps])
    riem = -jets.moveaxis(jets.contract(g, comm_up, 0, 0, points=True), 0, 3, True)  # R_ijkl (sphere-positive)
    ric = jets.contract(g_inv, riem, (0, 1), (0, 2), points=True)  # Ric_jk = g^im R_ijmk
    s = jets.contract(g_inv, ric, (0, 1), (0, 1), points=True)

    frame = np.stack([sp.frame for sp in sps])
    R_frame = tensorops.frame_components(riem.value, frame)
    ric_frame = tensorops.frame_components(ric.value, frame)
    operator = algebra.operator_matrix(R_frame)
    parts = [slice(start, start + CURVATURE_SLICE) for start in range(0, len(sps), CURVATURE_SLICE)]
    batches = [
        jets.Batch(
            CurvatureData,
            sps=sps[part],
            conns=conns[part],
            g=g[part],
            g_inv=g_inv[part],
            terms={},
            R=riem[part],
            ric=ric[part],
            s=s[part],
            frame=frame[part],
            ric_frame=ric_frame[part],
            s_value=s.value[part],
        )
        for part in parts
    ]
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
            batch=batches[k // CURVATURE_SLICE],
            index=k % CURVATURE_SLICE,
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
    batch: jets.Batch = field(repr=False)  # sps, frame, nabla_omega0 (stacked)
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

    @jets.per_batch
    def _g_inv0(batch: jets.Batch) -> Jet:
        return jets.stack([sp.g_inv.truncate(0) for sp in batch.sps])

    @jets.per_batch
    def _j0(batch: jets.Batch) -> Jet:
        return jets.stack([sp.J.truncate(0) for sp in batch.sps])

    @jets.per_batch
    def theta(batch: jets.Batch) -> Jet:
        """The Lee form theta = J(delta Omega), (J alpha)(X) = -alpha(JX), formed
        for the whole batch. Every reader reads its value, so it is built from
        the order-0 truncations of nabla Omega, g^-1 and J."""
        delta_omega = neg_trace(batch._g_inv0, batch.nabla_omega0, points=True)
        return -jets.contract(delta_omega, batch._j0, 0, 0, points=True)

    @jets.per_batch
    def a(batch: jets.Batch) -> Jet:
        """a (`nabla_omega_along` phi), formed for the whole batch from order-0
        truncations, the order-0 phi the structure stage checked among them:
        every reader reads its value."""
        return nabla_omega_along(batch.nabla_omega0, _checked_values(batch.sps, "phi"), batch._g_inv0, points=True)

    @jets.per_batch
    def b(batch: jets.Batch) -> Jet:
        """b (`nabla_omega_along` J phi), formed like `a`."""
        return nabla_omega_along(batch.nabla_omega0, _checked_values(batch.sps, "jphi"), batch._g_inv0, points=True)

    @jets.per_batch
    def theta_norm(batch: jets.Batch) -> list[float]:
        return _frame_max(batch.theta.value, batch.frame).tolist()

    @jets.per_batch
    def b_plus_ja_norm(batch: jets.Batch) -> list[float]:
        ja = -jets.contract(batch.a, batch._j0, 0, 0, points=True)  # (J a)_i = -a_k J^k_i
        return _frame_max((batch.b + ja).value, batch.frame).tolist()

    @jets.per_batch
    def identity_residual(batch: jets.Batch) -> list[float]:
        """nabla_X J vs its Lee-form/Nijenhuis reconstruction, formed for the whole batch."""
        return _nabla_j_identity_residual(batch, batch.nabla_omega0, batch.theta, batch.nijenhuis).tolist()


def hermitian_first_order(conns: Sequence[ConnectionData]) -> list[HermitianFirstOrder]:
    """|nabla J|^2 and |d Omega|, the first-order values every command reads,
    formed once over all the points; one record per point."""
    sps = [conn.sp for conn in conns]
    frame = np.stack([sp.frame for sp in sps])
    nabla_omega0 = Jet._of(0, np.stack([conn.nabla_omega.c[..., :1] for conn in conns]))
    nabla_omega = tensorops.frame_components(nabla_omega0.value, frame)
    nabla_j_sq = np.sum(nabla_omega * nabla_omega, axis=(1, 2, 3))
    d_omega = tensorops.ext_d_2form(jets.stack([sp.omega for sp in sps]), points=True)
    d_omega_norm = _frame_max(d_omega.value, frame)
    batch = jets.Batch(HermitianFirstOrder, sps=sps, frame=frame, nabla_omega0=nabla_omega0)
    values = zip(conns, nabla_j_sq.tolist(), d_omega_norm.tolist())
    return [HermitianFirstOrder(conn, sq, d, batch, k) for k, (conn, sq, d) in enumerate(values)]


def nabla_omega_along(nabla_omega: Jet, form: Jet, g_inv: Jet, points: bool = False) -> Jet:
    """The 1-form X -> <nabla_X Omega, form> / |form|^2 for a gauge form (phi
    gives a, J phi gives b), at every point with `points`."""
    return 0.5 * tensorops.form_inner(nabla_omega, form, g_inv, (1, 2), points)


def _checked_values(sps: Sequence[StructurePoint], name: str) -> Jet:
    """The order-0 `name` (phi or jphi) of each structure point, from the
    values its structure stage checked, stacked."""
    return jets.stack([getattr(sp.batch.values, name)[sp.index] for sp in sps])


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


def _nabla_j_identity_residual(batch: jets.Batch, nabla_omega: Jet, theta: Jet, nij: Jet) -> np.ndarray:
    """Residual of nabla_X J = 1/2 (X ^ J theta + JX ^ theta) + 1/2 N_{JX},
    with both sides read as 2-forms through Omega, at each point of a
    `HermitianFirstOrder` batch (only the jets' values are read)."""
    sps = batch.sps
    J = np.stack([sp.J.value for sp in sps])
    jtheta = -jets.contract(theta, batch._j0, 0, 0, points=True).value
    xb = np.stack([sp.g.value for sp in sps])  # X^flat for X = d_m is the row g_{m .}
    lhs = nabla_omega.value
    term1 = np.einsum("pmi,pj->pmij", xb, jtheta) - np.einsum("pmj,pi->pmij", xb, jtheta)
    jxb = np.stack([sp.omega.value for sp in sps])  # (J d_m)^flat_i = J^k_m g_ki = Omega_mi
    term2 = np.einsum("pmi,pj->pmij", jxb, theta.value) - np.einsum("pmj,pi->pmij", jxb, theta.value)
    njx = np.einsum("pkm,pkij->pmij", J, nij.value)  # N_{J d_m}(d_i, d_j)
    rhs = 0.5 * (term1 + term2) + 0.5 * njx
    return _frame_max(lhs - rhs, batch.frame)


def ricci_identity_check(cds: Sequence[CurvatureData]) -> list[float]:
    """Max-norm residual of the commuted second derivative of Omega at each point:

    (nabla^2_{X,Y} - nabla^2_{Y,X})(Omega)(Z, T) = -R_{X,Y,JZ,T} - R_{X,Y,Z,JT}.
    """
    dd = np.stack([cd.conn.nabla2_omega.value for cd in cds])  # (m, n, i, j)
    lhs = dd - np.moveaxis(dd, 1, 2)
    rv = np.stack([cd.R.value for cd in cds])
    jv = np.stack([cd.sp.J.value for cd in cds])
    rhs = -np.einsum("pmnkj,pki->pmnij", rv, jv) - np.einsum("pmnik,pkj->pmnij", rv, jv)
    return _frame_max(lhs - rhs, np.stack([cd.sp.frame for cd in cds])).tolist()
