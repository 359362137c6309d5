"""Algebraic curvature sandbox at a point of the standard Hermitian R^4.

Generates Bianchi-symmetric curvature-type tensors, either at random or
with prescribed decomposition blocks, as the brute-force oracle for the
purely pointwise lemmas. Construction never touches the chart/jet
pipeline: agreement between sandbox predictions and chart results on
matched configurations is a genuine cross-check.
"""

from __future__ import annotations

import numpy as np

from . import algebra

#: Largest asymmetry or trace `curvature_with_blocks` accepts in a prescribed block.
BLOCK_TOL = 1e-10


def random_batch(n: int, seed: int) -> np.ndarray:
    """n independent random algebraic curvature tensors, shape (n, 4, 4, 4, 4)."""
    rng = np.random.default_rng(np.random.SeedSequence([int(seed), 0xC0]))
    raw = rng.standard_normal((n, 4, 4, 4, 4))
    return algebra.bianchi_project(algebra.curvature_symmetrize(raw))


def curvature_with_blocks(
    s: float = 0.0,
    ric0: np.ndarray | None = None,
    kappa: float = 0.0,
    psi: tuple[float, float] = (0.0, 0.0),
    w3: tuple[float, float] = (0.0, 0.0),
    wminus: np.ndarray | None = None,
) -> np.ndarray:
    """Frame components of a curvature tensor with exactly the prescribed blocks.

    Args:
      s: scalar curvature.
      ric0: traceless symmetric 4x4 frame tensor (any mix of J-invariant and
        J-anti-invariant parts).
      kappa: conformal scalar curvature, fixing the W1+ block.
      psi: components (p, q) of the anti-invariant 2-form driving W2+.
      w3: the two parameters (diagonal, off-diagonal) of the traceless W3+
        block on the (phi, J phi) plane.
      wminus: traceless symmetric 3x3 anti-self-dual Weyl block.

    Raises ValueError when a block violates its constraint.
    """
    r = (float(s) / 24.0) * algebra.kn_delta(algebra.DELTA)
    if ric0 is not None:
        ric0 = np.asarray(ric0, dtype=float)
        if np.abs(ric0 - ric0.T).max() > BLOCK_TOL:
            raise ValueError("ric0 block must be symmetric")
        if abs(np.trace(ric0)) > BLOCK_TOL:
            raise ValueError("ric0 block must be traceless")
        r = r + 0.5 * algebra.kn_delta(ric0)

    m = np.zeros((6, 6))
    m[0, 0] = kappa / 6.0
    m[1, 1] -= kappa / 12.0
    m[2, 2] -= kappa / 12.0
    p, q = float(psi[0]), float(psi[1])
    m[0, 1] = m[1, 0] = -0.5 * p
    m[0, 2] = m[2, 0] = -0.5 * q
    w3d, w3o = float(w3[0]), float(w3[1])
    m[1, 1] += w3d
    m[2, 2] -= w3d
    m[1, 2] = m[2, 1] = w3o
    if wminus is not None:
        wminus = np.asarray(wminus, dtype=float)
        if np.abs(wminus - wminus.T).max() > BLOCK_TOL or abs(np.trace(wminus)) > BLOCK_TOL:
            raise ValueError("wminus block must be symmetric and traceless")
        m[3:, 3:] = wminus
    return r + algebra.tensor_from_operator(m)


def g2_batch(n: int, seed: int) -> np.ndarray:
    """Random tensors satisfying the second Gray condition.

    Built from random scalar, J-invariant Ric0, kappa, W3+ = 0, W2+ = 0 and
    a random anti-self-dual Weyl block.
    """
    rng = np.random.default_rng(np.random.SeedSequence([int(seed), 0xB2]))
    out = np.empty((n, 4, 4, 4, 4))
    for i in range(n):
        ric0 = _random_jinv_ric0(rng)
        wm = _random_traceless_sym3(rng)
        out[i] = curvature_with_blocks(
            s=float(rng.standard_normal()), ric0=ric0, kappa=float(rng.standard_normal()), wminus=wm
        )
    return out


def g1_batch(n: int, seed: int) -> np.ndarray:
    """Random tensors satisfying the first Gray condition (kappa = s on top of g2)."""
    rng = np.random.default_rng(np.random.SeedSequence([int(seed), 0xB1]))
    out = np.empty((n, 4, 4, 4, 4))
    for i in range(n):
        s = float(rng.standard_normal())
        out[i] = curvature_with_blocks(
            s=s, ric0=_random_jinv_ric0(rng), kappa=s, wminus=_random_traceless_sym3(rng)
        )
    return out


def _random_jinv_ric0(rng) -> np.ndarray:
    h = rng.standard_normal((4, 4))
    h = 0.5 * (h + h.T)
    h -= np.trace(h) / 4.0 * np.eye(4)
    h = algebra.j_invariant_part(h)
    h -= np.trace(h) / 4.0 * np.eye(4)
    return h


def _random_traceless_sym3(rng) -> np.ndarray:
    w = rng.standard_normal((3, 3))
    w = 0.5 * (w + w.T)
    return w - np.trace(w) / 3.0 * np.eye(3)
