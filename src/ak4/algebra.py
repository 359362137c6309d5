"""Pointwise curvature algebra on the standard Hermitian R^4.

Everything here operates on plain numpy arrays in an orthonormal frame
adapted to the standard complex structure (e2 = J e1, e4 = J e3), with
leading batch axes supported throughout. This module is independent of the
chart/jet pipeline, so it can serve as a brute-force oracle for pointwise
claims about the curvature decomposition; the sandbox checks run on it.

The pipeline's contractions with the constant frame tensors FRAME_FORMS
and J_FRAME, whose entries are 0 or +-1, are signed gathers (`_gathered`)
from index and sign tables built once: `operator_matrix`, `form_pairing`
(R(Omega) in s* and the Omega pairing of the delta W+ split) and `_rot`,
which applies J to tensor slots (the Gray identities and the J-invariant
part). `tensor_from_operator` and `kn_delta` stay einsums. The gather
order rule: each output adds its non-zero terms one at a time to
0.0 in the order the einsum or np.dot it replaced added them on the layout
the pipeline passes, so every bit is the one that code gave, the sign of
zero included. That order depended on the operands' strides, which the
gathers' order does not: on another layout einsum may have rounded
differently. The replaced code also multiplied the zero entries, so an
output that read an inf or NaN through a zero coefficient was NaN; the
gathers give NaN there too.

Conventions match `riemann`: R(X, Y, X, Y) is the sectional curvature, the
operator on 2-forms is (R phi)_ij = (1/2) R_ijkl phi_kl with the
half-tensor-norm inner product, and the basis of 2-forms is
(Omega, phi, J phi, and the anti-self-dual triple), each of squared norm 2.
"""

from __future__ import annotations

import functools
from collections.abc import Callable

import numpy as np

from .charts import FRAME_FORMS, J_FRAME
from .tensorops import EPS4

DELTA = np.eye(4)

with np.errstate(invalid="ignore"):
    #: The NaN of 0 * inf, which einsum's zero terms made of an inf.
    _ZERO_TIMES_INF = np.float64(0.0) * np.inf


def _read_only(*tables: np.ndarray) -> tuple[np.ndarray, ...]:
    """The arrays, made read-only: the tables are shared by every call."""
    for table in tables:
        table.flags.writeable = False
    return tables


def _table(t: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """The index and sign tables of the linear map with the matrix t
    (outputs, inputs), whose entries are 0 or +-1 and whose rows hold equally
    many non-zero entries: two read-only (terms, outputs) arrays, the terms
    of each output in input order (np.nonzero's C order)."""
    rows, cols = np.nonzero(t)
    shape = (len(t), -1)
    return _read_only(cols.reshape(shape).T.copy(), t[rows, cols].reshape(shape).T.copy())


def _gathered(x: np.ndarray, table: tuple[np.ndarray, np.ndarray], fibers: Callable[[np.ndarray], np.ndarray] | None = None) -> np.ndarray:
    """sum_t sign[t, o] x[..., index[t, o]] for every output o of the table,
    the terms added one at a time to 0.0 in table order.

    einsum read an output's whole fiber, multiplying the entries outside its
    terms by 0: an output whose fiber holds more non-finite entries than its
    terms do is NaN, the NaN of 0 * inf. `fibers(bad)` counts the non-finite
    entries of each output's fiber, given the non-finite entries of x; the
    fiber is the whole last axis of x by default.
    """
    x = np.asarray(x, dtype=np.float64)  # the tables are float64, as were einsum's and np.dot's operands
    index, sign = table
    terms = np.take(x, index, axis=-1)
    terms *= sign
    out = np.add.reduce(terms, axis=-2, initial=0.0)
    finite = np.isfinite(x)
    if not finite.all():
        bad = ~finite
        read = bad.sum(axis=-1, keepdims=True) if fibers is None else fibers(bad)
        out[read > np.take(bad, index, axis=-1).sum(axis=-2)] = _ZERO_TIMES_INF
    return out


#: (a, b) x (i, j, k, l): FRAME_FORMS[a, i, j] * FRAME_FORMS[b, k, l], 16 terms per (a, b).
_OPERATOR = _table((FRAME_FORMS[:, None, :, :, None, None] * FRAME_FORMS[None, :, None, None]).reshape(36, 256))
#: j x a: J^a_j, one term per j.
_J_SLOT = _table(J_FRAME.T)
#: a x (k, l): FRAME_FORMS[a, k, l], four terms per form.
_FORM = _table(FRAME_FORMS.reshape(6, 16))


def operator_matrix(r: np.ndarray) -> np.ndarray:
    """6x6 matrix of a curvature-type tensor on the 2-form basis.

    Each entry adds its 16 terms in (i, j, k, l) order, as
    einsum("...ijkl,aij,bkl->...ab") does on a C-ordered batch and on the
    strided one `tensorops.frame_components` returns."""
    m = _gathered(r.reshape(r.shape[:-4] + (256,)), _OPERATOR) / 8.0
    return m.reshape(r.shape[:-4] + (6, 6))


def form_pairing(t: np.ndarray, a: int) -> np.ndarray:
    """(1/2) sum_kl t[..., k, l] FRAME_FORMS[a, k, l]: the last two slots of t
    paired with the basis 2-form a by the half-norm inner product.

    The four terms are added in (k, l) order, as einsum("...ijkl,kl->...ij")
    adds them on the strided values `tensorops.frame_components` returns (on
    a C-ordered operand einsum pairs them across SIMD lanes instead)."""
    index, sign = _FORM
    paired = _gathered(t.reshape(t.shape[:-2] + (16,)), (index[:, a : a + 1], sign[:, a : a + 1]))
    return 0.5 * paired[..., 0]


def tensor_from_operator(m: np.ndarray) -> np.ndarray:
    """Curvature-type tensor whose 2-form operator has the given matrix."""
    return 0.5 * np.einsum("...ab,aij,bkl->...ijkl", m, FRAME_FORMS, FRAME_FORMS)


def kn_delta(h: np.ndarray) -> np.ndarray:
    """Kulkarni-Nomizu product of a symmetric 2-tensor with the flat metric."""
    t = np.einsum("...ik,jl->...ijkl", h, DELTA) + np.einsum("...jl,ik->...ijkl", h, DELTA)
    return t - np.einsum("...il,jk->...ijkl", h, DELTA) - np.einsum("...jk,il->...ijkl", h, DELTA)


def ricci_contraction(r: np.ndarray) -> np.ndarray:
    """Ric_jk = sum_i R_ijik for frame components."""
    return np.einsum("...ijik->...jk", r)


def curvature_symmetrize(r: np.ndarray) -> np.ndarray:
    """Project onto pair-symmetric tensors antisymmetric in both pairs."""
    r = 0.5 * (r - np.swapaxes(r, -4, -3))
    r = 0.5 * (r - np.swapaxes(r, -2, -1))
    return 0.5 * (r + np.moveaxis(r, (-4, -3, -2, -1), (-2, -1, -4, -3)))


def bianchi_project(r: np.ndarray) -> np.ndarray:
    """Remove the totally antisymmetric part, enforcing the first Bianchi identity."""
    c = np.einsum("...ijkl,ijkl->...", r, EPS4) / 24.0
    return r - c[..., None, None, None, None] * EPS4


def j_invariant_part(h: np.ndarray) -> np.ndarray:
    """J-invariant part of a 2-tensor: (h + h(J., J.)) / 2."""
    return 0.5 * (h + _rot(h, (0, 1), 2))


def j_anti_part(h: np.ndarray) -> np.ndarray:
    return h - j_invariant_part(h)


@functools.cache
def _rotation(slots: tuple[int, ...], rank: int) -> tuple[np.ndarray, np.ndarray]:
    """The table of J applied to the given slots of a flat rank-`rank`
    tensor, one slot after another: a signed permutation of its 4**rank
    entries, one term per output, built on its first use and kept."""
    index = np.indices((4,) * rank)
    sign = np.ones((4,) * rank)
    source, slot_sign = _J_SLOT[0][0], _J_SLOT[1][0]
    for slot in slots:
        sign *= slot_sign[index[slot]]
        index[slot] = source[index[slot]]
    return _read_only(np.ravel_multi_index(tuple(index), index.shape[1:]).reshape(1, -1), sign.reshape(1, -1))


def _rot(r: np.ndarray, slots: tuple[int, ...], rank: int = 4) -> np.ndarray:
    """Apply J to the given distinct tensor slots (0-based among the last
    `rank` axes): (J r)_..j.. = sum_a r_..a.. J^a_j on each slot.

    One signed gather of each point's 4**rank entries, with the bits that
    np.dot or einsum with J_FRAME gave slot after slot. Where they multiplied
    a non-finite entry by a zero of J, the entries of the rotated slots
    beside it are NaN.
    """
    axes = tuple(slot - rank for slot in slots)
    flat_shape = r.shape[: r.ndim - rank] + (-1,)

    def blocks(bad: np.ndarray) -> np.ndarray:
        """The non-finite entries of each block the rotated slots span."""
        bad = bad.reshape(r.shape)
        return np.broadcast_to(bad.sum(axis=axes, keepdims=True), r.shape).reshape(flat_shape)

    return _gathered(r.reshape(flat_shape), _rotation(tuple(slots), rank), blocks).reshape(r.shape)


# -- Gray curvature conditions --------------------------------------------------


def gray_residuals(r: np.ndarray) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """Max-norm violations of the three Gray curvature identities.

    g1: R(X,Y,Z,W) = R(X,Y,JZ,JW)
    g2: R(X,Y,Z,W) - R(JX,JY,Z,W) = R(JX,Y,JZ,W) + R(JX,Y,Z,JW)
    g3: R(X,Y,Z,W) = R(JX,JY,JZ,JW)
    """
    axes = (-4, -3, -2, -1)
    # each rotation is one gather from a compact copy of r
    r = np.ascontiguousarray(r)
    g1 = np.abs(r - _rot(r, (2, 3))).max(axis=axes)
    g2 = np.abs(r - _rot(r, (0, 1)) - _rot(r, (0, 2)) - _rot(r, (0, 3))).max(axis=axes)
    g3 = np.abs(r - _rot(r, (0, 1, 2, 3))).max(axis=axes)
    return g1, g2, g3


# -- block extraction ------------------------------------------------------------


def split_operator(m: np.ndarray) -> dict[str, np.ndarray]:
    """Scalar, Kulkarni-Nomizu and Weyl blocks of a 6x6 curvature operator."""
    a = m[..., :3, :3]
    c = m[..., 3:, 3:]
    b = m[..., :3, 3:]
    tr_a = np.trace(a, axis1=-2, axis2=-1)
    tr_c = np.trace(c, axis1=-2, axis2=-1)
    s = 2.0 * (tr_a + tr_c)
    eye3 = np.eye(3)
    wp = a - (tr_a[..., None, None] / 3.0) * eye3
    wm = c - (tr_c[..., None, None] / 3.0) * eye3
    return {"s": s, "wplus": wp, "wminus": wm, "mixed": b}


def join_operator(parts: dict[str, np.ndarray]) -> np.ndarray:
    """The 6x6 operator with the given `split_operator` blocks (its inverse)."""
    s = np.asarray(parts["s"])[..., None, None] / 12.0 * np.eye(3)
    mixed = parts["mixed"]
    m = np.zeros(mixed.shape[:-2] + (6, 6))
    m[..., :3, :3] = parts["wplus"] + s
    m[..., 3:, 3:] = parts["wminus"] + s
    m[..., :3, 3:] = mixed
    m[..., 3:, :3] = np.swapaxes(mixed, -1, -2)
    return m


def u2_blocks(wp: np.ndarray) -> dict[str, np.ndarray]:
    """Split a 3x3 self-dual Weyl block on (Omega, phi, Jphi) into its three parts.

    Also recovers the conformal scalar curvature kappa = 6 W+(0,0) and the
    anti-invariant 2-form Psi with W2+ = -(1/4)(Psi (x) Omega + Omega (x) Psi),
    returned as components (p, q) along (phi, J phi).
    """
    w00 = wp[..., 0, 0]
    kappa = 6.0 * w00
    z = np.zeros_like(wp)
    w1 = z.copy()
    w1[..., 0, 0] = w00
    w1[..., 1, 1] = -0.5 * w00
    w1[..., 2, 2] = -0.5 * w00
    w2 = z.copy()
    w2[..., 0, 1] = wp[..., 0, 1]
    w2[..., 1, 0] = wp[..., 1, 0]
    w2[..., 0, 2] = wp[..., 0, 2]
    w2[..., 2, 0] = wp[..., 2, 0]
    w3 = wp - w1 - w2
    psi = np.stack([-2.0 * wp[..., 0, 1], -2.0 * wp[..., 0, 2]], axis=-1)
    return {"w1": w1, "w2": w2, "w3": w3, "kappa": kappa, "psi": psi}


def psi_form(psi: np.ndarray) -> np.ndarray:
    """Frame components of Psi = p phi + q (J phi)."""
    return psi[..., 0, None, None] * FRAME_FORMS[1] + psi[..., 1, None, None] * FRAME_FORMS[2]


def frobenius(x: np.ndarray, k: int = 2) -> np.ndarray:
    """Frobenius norm over the trailing k axes."""
    return np.sqrt(np.sum(x * x, axis=tuple(range(-k, 0))))
