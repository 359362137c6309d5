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
the record of the stage before it, `charts.StructureBatch` first, and
returns one record whose fields keep the leading point axis: it reads the
earlier stage's arrays as they are, with no per-point copies, and computes
with the jet kernels, which all take the point axis, and a point-axis
`tensorops.frame_components`. A point is an index into that axis, and a
single point is a batch of one. Point k of a batch has, bit for
bit, the values of a batch of that point alone. What only some commands
read is a cached property, computed for the whole batch on its first read,
so `ak4 classify` never computes theta, a or b. These are nabla Omega and
nabla^2 Omega, the traceless Ricci frame, the Nijenhuis tensor, theta, a
and b (values, built from order-0 truncations), and the jets of the
second-order report: Ric0, h, the Weyl tensor, its halves and their
codifferentials, and the frame values of the three Bach routes. Those are
formed on `CurvatureBatch.slices()`, views of CURVATURE_SLICE points of the
batch, a slice at a time. `covd`, `neg_trace` and `divergence` take the
point axis as `jets.contract` does; `covd` and `divergence` raise ValueError
unless Gamma has shape (P, 4, 4, 4, ncoef) and the tensor the same point
count, since a tensor without its point axis would otherwise pass for a
batch of 4 points. The report rows that read 4x4 frame values, the Ricci
identity (`ricci_identity_check`) and the nabla J identity
(`FirstOrderBatch.identity_residual`), run on the point axis too, once per
batch, each with the bits of a batch of one: where einsum reads a value that
is a strided view of a batch jet, it reads a compact copy in the same axis
order, the layout a stack of the points' views had, since einsum sums in an
order that depends on strides.

Since every kernel gives each point of a batch its bits alone, k
independent jet computations of one shape run as one kernel call over k*P
rows: `jets.concat` stacks the k pieces on the point axis, with their
operands repeated k times beside them, and `jets.split` cuts the result
back into its k blocks. `covd` stacks its slot-moved copies of t and
`divergence` its slots other than `slot`; kn(g, g) and kn(Ric0, g) are one
`kn_jet`; the Hodge star is one rank-4 tensor per slice
(`CurvatureBatch.star`), whose one contraction with the first pair of W
gives both Weyl halves W+- = (1/2)(W +- *W); delta W, delta W+ and
delta W- are one divergence of W, W+ and W- stacked, each the
codifferential of its own tensor, never a difference; the three Bach
routes are one divergence of those three codifferentials stacked; and a
and b are one `nabla_omega_along` over phi and J phi. Each block is
subtracted in the order the loop it replaced subtracted it.
"""

from __future__ import annotations

import functools
from dataclasses import dataclass

import numpy as np

from . import algebra, jets, tensorops
from .charts import StructureBatch
from .jets import Jet


@dataclass
class ConnectionBatch:
    """Christoffel jets of a batch of structure points, on its point axis."""

    structure: StructureBatch
    gamma: Jet  # gamma[p, k, i, j] = Gamma^k_ij at point p, order one below the metric

    @functools.cached_property
    def nabla_omega(self) -> Jet:
        """nabla Omega, slots (m, i, j): the first-order data, the Ricci
        identity and the Weitzenboeck check of Omega all read this one jet."""
        return covd(self.gamma, self.structure.omega)

    @functools.cached_property
    def nabla2_omega(self) -> Jet:
        """nabla^2 Omega, slots (m, n, i, j), the covariant derivative of `nabla_omega`."""
        return covd(self.gamma, self.nabla_omega)


def _check_batch(gamma: Jet, t: Jet) -> None:
    """Raise ValueError unless gamma has shape (P, 4, 4, 4, ncoef) and t has
    the same point count P. Every tensor axis has length 4, so a tensor
    without its point axis would otherwise pass for a batch of 4 points."""
    if gamma.c.ndim != 5 or gamma.c.shape[1:4] != (4, 4, 4) or t.c.ndim < 2 or t.c.shape[0] != gamma.c.shape[0]:
        raise ValueError(
            f"covariant derivative needs Gamma of shape (P, 4, 4, 4, ncoef) and a tensor with the same "
            f"point count P, got Gamma {gamma.c.shape} and tensor {t.c.shape}"
        )


def covd(gamma: Jet, t: Jet) -> Jet:
    """Covariant derivative of a fully covariant tensor of jets with the
    Christoffel jets `gamma`, at every point.

    The new derivative index comes first:
    (covd T)_{m, i1..ik} = d_m T_{i1..ik} - sum_a Gamma^p_{m i_a} T_{..p..}.
    The derivative term has one order less than t, so gamma and t enter the
    contractions at that order. The k copies of t with slot a moved first
    are one contraction over k*P rows, and the terms are subtracted slot by
    slot.
    """
    _check_batch(gamma, t)
    out = jets.partials(t)
    rank = t.c.ndim - 2
    if not rank:
        return out
    low = min(out.order, gamma.order)
    gamma, t = gamma.truncate(low), t.truncate(low)
    moved = jets.concat([jets.moveaxis(t, a, 0) for a in range(rank)])
    terms = jets.contract(jets.concat([gamma] * rank), moved, 0, 0)  # (m, q, rest) per slot
    for a, term in enumerate(jets.split(terms, rank)):
        out = out - jets.moveaxis(term, 1, a + 1)
    return out


def neg_trace(g_inv: Jet, t: Jet) -> Jet:
    """-g^mn t_{m,n,...}, at every point: the codifferential of
    T when t = nabla T, the rough Laplacian nabla^* nabla T when t = nabla^2 T."""
    return -jets.contract(g_inv, t, (0, 1), (0, 1))


def divergence(g_inv: Jet, gamma: Jet, t: Jet, slot: int = 0) -> Jet:
    """g^mi (nabla_m t)_{..i..} with i at `slot`, at every point.

    It is g^mi d_m t_{..i..} - v^p t_{..p..} - sum_{a != slot} K^ip_c t_{..i..p..}
    (p at slot a, c the free index there), with v^p = g^mi Gamma^p_mi and
    K[i, p, c] = g^mi Gamma^p_mc contracted at the result's order, so nabla
    t is never formed; K only when t has a slot other than `slot`. The K
    terms of those slots are one contraction over the copies of t with
    (slot, a) moved first, stacked on the point axis; the other slots keep
    their order.
    """
    _check_batch(gamma, t)
    out = jets.contract(g_inv, jets.partials(t), (0, 1), (0, slot + 1))
    low, g_low, gamma_low = (x.truncate(out.order) for x in (t, g_inv, gamma))
    out = out - jets.contract(jets.contract(g_low, gamma_low, (0, 1), (1, 2)), low, 0, slot)
    others = [a for a in range(t.c.ndim - 2) if a != slot]
    if others:
        raised = jets.contract(g_low, gamma_low, 0, 1)
        moved = jets.concat([jets.moveaxis(low, (slot, a), (0, 1)) for a in others])
        stacked = jets.contract(jets.concat([raised] * len(others)), moved, (0, 1), (0, 1))  # (c, other slots) per slot
        for a, term in zip(others, jets.split(stacked, len(others))):
            out = out - jets.moveaxis(term, 0, a if a < slot else a - 1)
    return out


def connection(structure: StructureBatch) -> ConnectionBatch:
    """Levi-Civita connection of the metric at every point of the batch."""
    if structure.order < 1:
        raise jets.JetOrderError("connection needs jet order >= 1")
    dg = jets.partials(structure.g)  # dg[m, i, j] = d_m g_ij
    # Gamma^k_ij = 1/2 g^kl (d_i g_lj + d_j g_li - d_l g_ij)
    sym = jets.moveaxis(dg, (0, 1, 2), (1, 0, 2)) + jets.moveaxis(dg, (0, 1, 2), (2, 1, 0)) - dg
    return ConnectionBatch(structure, 0.5 * jets.contract(structure.g_inv, sym, 1, 0))


#: The most points whose second-order jets are formed at once. The report
#: rows built on the `CurvatureBatch` second-order jets run on
#: `CurvatureBatch.slices()`, batches of up to this many points: their
#: temporaries grow with the points formed at once, and past a few points a
#: larger slice saves little.
CURVATURE_SLICE = 8


@dataclass
class CurvatureBatch:
    """Curvature of a batch of chart points: coordinate jets, frame components,
    operator, each on the point axis.

    `rows` are the points of `conn` the batch holds: all of them for the
    batch `curvature` returns, CURVATURE_SLICE of them for each of its
    `slices()`; only the code that runs on slices (`bianchi_bach`) reads it.
    The second-order report's jets, the traceless Ricci tensor, h, the Hodge
    star operator (`star`, at R's order), the Weyl tensor, its halves and
    their codifferentials (`delta_weyls`), and the frame values of the Bach
    routes are cached properties, formed for the batch's points on the
    first read."""

    conn: ConnectionBatch
    rows: slice
    g: Jet  # g, g^-1 and Gamma at R's order, the most their readers take
    g_inv: Jet
    gamma: Jet
    R: Jet  # (0,4) coordinate jets, conventions in the module docstring
    ric: Jet
    s: Jet
    frame: np.ndarray
    R_frame: np.ndarray
    ric_frame: np.ndarray
    s_value: np.ndarray
    operator: np.ndarray  # 6x6 matrices on the (Omega, phi, Jphi, asd triple) basis

    def slices(self) -> list[CurvatureBatch]:
        """The batch cut into batches of up to CURVATURE_SLICE consecutive
        points (itself when it has no more), whose arrays are views of its
        own and which form their own second-order jets. Not cached: a batch
        that held itself would be a reference cycle, which refcounting
        cannot free."""
        n = len(self.s_value)
        if n <= CURVATURE_SLICE:
            return [self]
        parts = [slice(start, min(start + CURVATURE_SLICE, n)) for start in range(0, n, CURVATURE_SLICE)]
        views = ("g", "g_inv", "gamma", "R", "ric", "s", "frame", "R_frame", "ric_frame", "s_value", "operator")
        return [CurvatureBatch(self.conn, rows, **{name: getattr(self, name)[rows] for name in views}) for rows in parts]

    @functools.cached_property
    def ric0_frame(self) -> np.ndarray:
        """Frame components of the traceless Ricci tensor."""
        return self.ric_frame - (self.s_value / 4.0)[:, None, None] * np.eye(4)

    @functools.cached_property
    def ric0(self) -> Jet:
        return self.ric - 0.25 * (self.s[:, None, None] * self.g)

    @functools.cached_property
    def h(self) -> Jet:
        """The normalized Ricci tensor h = (1/2)(Ric - s/6 g): Cotton-York
        differentiates it and each Bach route contracts it with its Weyl tensor."""
        return 0.5 * (self.ric - (self.s / 6.0)[:, None, None] * self.g)

    @functools.cached_property
    def h_raised(self) -> Jet:
        """h^ab at order 0: the Bach routes read only its value."""
        return tensorops.raise_pair(self.h.truncate(0), self.g_inv.truncate(0), 0, 1)

    @functools.cached_property
    def weyl(self) -> Jet:
        """Weyl tensor jets: R minus the scalar and traceless-Ricci blocks.
        kn(g, g) and kn(Ric0, g) are one `kn_jet` over (g, Ric0) stacked."""
        kn_gg, kn_ric0 = jets.split(tensorops.kn_jet(jets.concat([self.g, self.ric0]), jets.concat([self.g, self.g])), 2)
        scalar_part = jets.outer(self.s / 24.0, kn_gg)
        ric0_part = 0.5 * kn_ric0
        return self.R - scalar_part - ric0_part

    @functools.cached_property
    def star(self) -> Jet:
        """The Hodge star on 2-forms (`tensorops.star_operator`) at g^-1's
        order, R's, from the batch's view of the structure batch's mu."""
        return tensorops.star_operator(self.conn.structure.mu[self.rows], self.g_inv)

    @functools.cached_property
    def _weyl_halves(self) -> list[Jet]:
        """W+ and W-, each its own projection of W, W+- = (1/2)(W +- *W) on
        the first pair: in dimension 4 the star commutes with a Weyl tensor
        (Atiyah, Hitchin & Singer, 1978), so this projects the second pair
        too, and W- is never W - W+."""
        star_w = jets.contract(self.star, self.weyl, (2, 3), (0, 1))
        return [0.5 * (self.weyl + star_w), 0.5 * (self.weyl - star_w)]

    @property
    def weyl_plus(self) -> Jet:
        return self._weyl_halves[0]

    @property
    def weyl_minus(self) -> Jet:
        return self._weyl_halves[1]

    @functools.cached_property
    def delta_weyls(self) -> list[Jet]:
        """The codifferentials [delta W, delta W+, delta W-], slots (X; Y, Z):
        one divergence of the three stacked, so each is the codifferential of
        its own tensor (delta W+ is never delta W - delta W-)."""
        stacked = jets.concat([self.weyl, self.weyl_plus, self.weyl_minus])
        g_inv, gamma = jets.concat([self.g_inv] * 3), jets.concat([self.gamma] * 3)
        return jets.split(-divergence(g_inv, gamma, stacked, 0), 3)

    @functools.cached_property
    def bach_routes(self) -> np.ndarray:
        """sum_i [nabla_i (dw)(X, e_i, Y) + w(X, e_i, h(e_i), Y)] in frame
        components, shape (3, P, 4, 4), for (w, dw) = (W, delta W), (W+,
        delta W+) and (W-, delta W-): the direct Bach route and the two
        Gauduchon routes, each from its own W and delta W, in one pass over
        the three stacked on the point axis."""
        w = jets.concat([self.weyl.truncate(0), self.weyl_plus.truncate(0), self.weyl_minus.truncate(0)])
        g_inv, gamma, h_raised = (jets.concat([t] * 3) for t in (self.g_inv, self.gamma, self.h_raised))
        term1 = divergence(g_inv, gamma, jets.concat(self.delta_weyls), 1).value  # (x, y)
        # the W h term is read as a value only: it runs on order-0 truncations
        term2 = jets.contract(w, h_raised, (1, 2), (0, 1)).value  # W_xaby h^ab -> (x, y)
        return self.frame_blocks(term1 + term2, 3)

    def frame_blocks(self, values: np.ndarray, k: int) -> np.ndarray:
        """The frame components of k blocks of tensor values stacked on the
        point axis, each at the batch's points: one `tensorops.frame_components`
        call, cut into a (k, P, ...) array."""
        out = tensorops.frame_components(values, np.concatenate([self.frame] * k))
        return out.reshape(k, -1, *out.shape[1:])


def curvature(conn: ConnectionBatch) -> CurvatureBatch:
    """Riemann, Ricci and scalar curvature plus the operator on 2-forms at
    every point of the batch."""
    structure = conn.structure
    if structure.order < 2:
        raise jets.JetOrderError("curvature needs jet order >= 2")
    dg = jets.partials(conn.gamma)  # dg[m, l, i, j] = d_m Gamma^l_ij
    # [nabla_i, nabla_j] d_k = (d_i G^l_jk - d_j G^l_ik + G^l_im G^m_jk - G^l_jm G^m_ik) d_l
    t1 = jets.moveaxis(dg, (0, 1, 2, 3), (1, 0, 2, 3))  # t1[l, i, j, k] = d_i Gamma^l_jk
    # R is one order below Gamma, so the product needs Gamma only to that order
    gamma_low = conn.gamma.truncate(dg.order)
    gg = jets.contract(gamma_low, gamma_low, 2, 0)  # gg[l, i, j, k] = G^l_im G^m_jk
    comm_up = t1 - jets.moveaxis(t1, 1, 2) + gg - jets.moveaxis(gg, 1, 2)
    # every later product and the batch's readers take g and g^-1 at R's order
    g, g_inv = structure.g.truncate(dg.order), structure.g_inv.truncate(dg.order)
    riem = -jets.moveaxis(jets.contract(g, comm_up, 0, 0), 0, 3)  # R_ijkl (sphere-positive)
    ric = jets.contract(g_inv, riem, (0, 1), (0, 2))  # Ric_jk = g^im R_ijmk
    s = jets.contract(g_inv, ric, (0, 1), (0, 1))

    frame = structure.frame
    R_frame = tensorops.frame_components(riem.value, frame)
    ric_frame = tensorops.frame_components(ric.value, frame)
    operator = algebra.operator_matrix(R_frame)
    rows = slice(0, len(frame))
    return CurvatureBatch(conn, rows, g, g_inv, gamma_low, riem, ric, s, frame, R_frame, ric_frame, s.value, operator)


# -- first-order almost Hermitian invariants -----------------------------------


@dataclass
class FirstOrderBatch:
    """nabla J data at every point of a batch: Lee form, Nijenhuis tensor, and
    the 1-forms a, b with nabla J = a (x) I + b (x) (J o I), where I is the
    anti-commuting structure whose fundamental form is the gauge phi.
    nabla Omega itself is `conn.nabla_omega`."""

    conn: ConnectionBatch
    nabla_j_sq: np.ndarray  # |nabla J|^2, full tensor norm
    d_omega_norm: np.ndarray
    nabla_omega0: Jet  # nabla Omega at order 0, the values its readers read

    @functools.cached_property
    def is_almost_kahler(self) -> np.ndarray:
        return self.d_omega_norm < 1e-9

    @functools.cached_property
    def nijenhuis(self) -> Jet:
        structure = self.conn.structure
        return _nijenhuis(structure.J.truncate(1), structure.g.truncate(0))

    @functools.cached_property
    def nijenhuis_norm(self) -> np.ndarray:
        """|N|: the verdict ladder reads it."""
        return _frame_max(self.nijenhuis.value, self.conn.structure.frame)

    @functools.cached_property
    def theta(self) -> Jet:
        """The Lee form theta = J(delta Omega), (J alpha)(X) = -alpha(JX). Every
        reader reads its value, so it is built from the order-0 truncations
        of nabla Omega, g^-1 and J."""
        structure = self.conn.structure
        delta_omega = neg_trace(structure.g_inv.truncate(0), self.nabla_omega0)
        return -jets.contract(delta_omega, structure.J.truncate(0), 0, 0)

    @functools.cached_property
    def _ab(self) -> list[Jet]:
        """a and b, one `nabla_omega_along` over phi and J phi stacked, from
        order-0 truncations, the order-0 phi and J phi the structure stage
        checked among them: every reader reads their values."""
        structure = self.conn.structure
        g_inv = structure.g_inv.truncate(0)
        forms = jets.concat([structure.phi0, structure.jphi0])
        return jets.split(nabla_omega_along(jets.concat([self.nabla_omega0] * 2), forms, jets.concat([g_inv, g_inv])), 2)

    @property
    def a(self) -> Jet:
        """a (`nabla_omega_along` phi)."""
        return self._ab[0]

    @property
    def b(self) -> Jet:
        """b (`nabla_omega_along` J phi)."""
        return self._ab[1]

    @functools.cached_property
    def theta_norm(self) -> list[float]:
        return _frame_max(self.theta.value, self.conn.structure.frame).tolist()

    @functools.cached_property
    def b_plus_ja_norm(self) -> list[float]:
        ja = -jets.contract(self.a, self.conn.structure.J.truncate(0), 0, 0)  # (J a)_i = -a_k J^k_i
        return _frame_max((self.b + ja).value, self.conn.structure.frame).tolist()

    @functools.cached_property
    def identity_residual(self) -> list[float]:
        """nabla_X J vs its Lee-form/Nijenhuis reconstruction."""
        return _nabla_j_identity_residual(self).tolist()


def hermitian_first_order(conn: ConnectionBatch) -> FirstOrderBatch:
    """|nabla J|^2 and |d Omega|, the first-order values every command reads,
    at every point of the batch."""
    structure = conn.structure
    nabla_omega0 = Jet._of(0, conn.nabla_omega.c[..., :1].copy(order="K"))  # compact: see `_nabla_j_identity_residual`
    nabla_omega = tensorops.frame_components(nabla_omega0.value, structure.frame)
    nabla_j_sq = np.sum(nabla_omega * nabla_omega, axis=(1, 2, 3))
    d_omega_norm = _frame_max(tensorops.ext_d_2form(structure.omega).value, structure.frame)
    return FirstOrderBatch(conn, nabla_j_sq, d_omega_norm, nabla_omega0)


def nabla_omega_along(nabla_omega: Jet, form: Jet, g_inv: Jet) -> Jet:
    """The 1-form X -> <nabla_X Omega, form> / |form|^2 for a gauge form (phi
    gives a, J phi gives b), at every point."""
    return 0.5 * tensorops.form_inner(nabla_omega, form, g_inv, (1, 2))


def _frame_max(values: np.ndarray, frame: np.ndarray) -> np.ndarray:
    """Max-norm of the frame components of a tensor value, at each point when
    the frame (and the value) carries a leading point axis."""
    components = np.abs(tensorops.frame_components(values, frame))
    return components.max(axis=tuple(range(frame.ndim - 2, components.ndim)))


def _nijenhuis(J: Jet, g: Jet) -> Jet:
    """N_X(Y, Z) = g([JY,JZ] - [Y,Z] - J[JY,Z] - J[Y,JZ], X) on coordinate fields,
    at each point of the point axis of J and g.

    Only its value is read, so J enters to first order and g as a value."""
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
    return jets.contract(g, total_up, 0, 2)  # N[x, y, z] = g_nx W[y, z, n]


def _nabla_j_identity_residual(hfo: FirstOrderBatch) -> np.ndarray:
    """Residual of nabla_X J = 1/2 (X ^ J theta + JX ^ theta) + 1/2 N_{JX},
    with both sides read as 2-forms through Omega, at each point of the
    batch (only the jets' values are read)."""
    structure, theta = hfo.conn.structure, hfo.theta
    jtheta = -jets.contract(theta, structure.J.truncate(0), 0, 0).value
    # compact copies of the frame values, in their axis order: einsum sums in
    # an order that depends on its operands' strides
    xb = structure.g.value.copy(order="K")  # X^flat for X = d_m is the row g_{m .}
    term1 = np.einsum("pmi,pj->pmij", xb, jtheta) - np.einsum("pmj,pi->pmij", xb, jtheta)
    jxb = structure.omega.value.copy(order="K")  # (J d_m)^flat_i = J^k_m g_ki = Omega_mi
    term2 = np.einsum("pmi,pj->pmij", jxb, theta.value) - np.einsum("pmj,pi->pmij", jxb, theta.value)
    njx = np.einsum("pkm,pkij->pmij", structure.J.value.copy(order="K"), hfo.nijenhuis.value)  # N_{J d_m}(d_i, d_j)
    rhs = 0.5 * (term1 + term2) + 0.5 * njx
    return _frame_max(hfo.nabla_omega0.value - rhs, structure.frame)


def ricci_identity_check(cd: CurvatureBatch) -> list[float]:
    """Max-norm residual of the commuted second derivative of Omega at each point:

    (nabla^2_{X,Y} - nabla^2_{Y,X})(Omega)(Z, T) = -R_{X,Y,JZ,T} - R_{X,Y,Z,JT}.
    """
    # compact copies in the values' axis order, for einsum (see `_nabla_j_identity_residual`)
    dd = cd.conn.nabla2_omega.value.copy(order="K")  # (m, n, i, j)
    lhs = dd - np.moveaxis(dd, 1, 2)
    rv = cd.R.value.copy(order="K")
    jv = cd.conn.structure.J.value.copy(order="K")
    rhs = -np.einsum("pmnkj,pki->pmnij", rv, jv) - np.einsum("pmnik,pkj->pmnij", rv, jv)
    return _frame_max(lhs - rhs, cd.frame).tolist()
