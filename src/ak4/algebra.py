"""Pointwise curvature algebra on the standard Hermitian R^4.

Everything here operates on plain numpy arrays in an orthonormal frame
adapted to the standard complex structure (e2 = J e1, e4 = J e3), with
leading batch axes supported throughout. This module is independent of the
chart/jet pipeline, so it can serve as a brute-force oracle for pointwise
claims about the curvature decomposition.

Conventions match `riemann`: R(X, Y, X, Y) is the sectional curvature, the
operator on 2-forms is (R phi)_ij = (1/2) R_ijkl phi_kl with the
half-tensor-norm inner product, and the basis of 2-forms is
(Omega, phi, J phi, and the anti-self-dual triple), each of squared norm 2.
"""

from __future__ import annotations

import numpy as np

from .charts import FRAME_FORMS, J_FRAME
from .tensorops import EPS4

DELTA = np.eye(4)


def operator_matrix(r: np.ndarray) -> np.ndarray:
    """6x6 matrix of a curvature-type tensor on the 2-form basis."""
    return np.einsum("...ijkl,aij,bkl->...ab", r, FRAME_FORMS, FRAME_FORMS) / 8.0


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
    return 0.5 * (h + np.einsum("ai,...ab,bj->...ij", J_FRAME, h, J_FRAME))


def j_anti_part(h: np.ndarray) -> np.ndarray:
    return h - j_invariant_part(h)


# -- Gray curvature conditions --------------------------------------------------


def _rot(r: np.ndarray, slots: tuple[int, ...]) -> np.ndarray:
    """Apply J to the given tensor slots (0-based among the last four axes).

    Each slot's axis in turn is moved last, flattened against the rest, and
    multiplied by J_FRAME in one np.dot.
    """
    out = r
    ndim = r.ndim
    for slot in slots:
        axis = ndim - 4 + slot
        rest = out.shape[:axis] + out.shape[axis + 1 :]
        flat = out.transpose((*range(axis), *range(axis + 1, ndim), axis)).reshape(-1, out.shape[axis])
        out = np.dot(flat, J_FRAME).reshape(rest + (4,)).transpose((*range(axis), ndim - 1, *range(axis, ndim - 1)))
    return out


def gray_residuals(r: np.ndarray) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """Max-norm violations of the three Gray curvature identities.

    g1: R(X,Y,Z,W) = R(X,Y,JZ,JW)
    g2: R(X,Y,Z,W) - R(JX,JY,Z,W) = R(JX,Y,JZ,W) + R(JX,Y,Z,JW)
    g3: R(X,Y,Z,W) = R(JX,JY,JZ,JW)
    """
    axes = (-4, -3, -2, -1)
    # the rotations that start with slot 0 share it, and g3's starts with g2's first
    r0 = _rot(r, (0,))
    r01 = _rot(r0, (1,))
    g1 = np.abs(r - _rot(r, (2, 3))).max(axis=axes)
    g2 = np.abs(r - r01 - _rot(r0, (2,)) - _rot(r0, (3,))).max(axis=axes)
    g3 = np.abs(r - _rot(r01, (2, 3))).max(axis=axes)
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
    return {"s": s, "wplus": wp, "wminus": wm, "mixed": b, "tr_plus": tr_a, "tr_minus": tr_c}


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
