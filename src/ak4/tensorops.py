"""Metric-level tensor helpers acting on jets in coordinate indices.

All tensors are fully covariant (lower indices); raising is explicit via
the inverse metric. Two-form inner products follow the convention that the
squared norm is half the tensor norm, so the wedge of two orthonormal
covectors has unit norm and the fundamental 2-form has squared norm 2.

The jet operators take a leading point axis, as the `jets` kernels do: a
single point is a batch of one, and the tensor axes they name count after
the point axis. `determinant4`, `volume_form` and `frame_components` read
their leading axes off their operands' shapes.
"""

from __future__ import annotations

import itertools

import numpy as np

from . import jets
from .jets import Jet


def _eps4() -> np.ndarray:
    eps = np.zeros((4, 4, 4, 4))
    for perm in itertools.permutations(range(4)):
        sign = 1
        p = list(perm)
        for i in range(4):
            for j in range(i + 1, 4):
                if p[i] > p[j]:
                    sign = -sign
        eps[perm] = sign
    return eps


EPS4 = _eps4()


def matrix_inverse(g: Jet) -> Jet:
    """Inverse of the 4x4 jet matrix at each point, whose constant term is invertible.

    Splits g = g0 + E with E nilpotent in the truncated algebra and sums the
    terminating Neumann series (I + g0^-1 E)^-1 g0^-1.
    """
    g0_inv = np.linalg.inv(g.value)
    g0_inv_jet = Jet.constant(g0_inv, g.order)
    e = g.c.copy()
    e[..., 0] = 0.0
    m = -jets.contract(g0_inv_jet, Jet._of(g.order, e), 1, 0)
    acc = Jet._of(g.order, np.zeros(g.c.shape))
    acc.c[..., 0] = np.eye(4)
    term = acc
    for _ in range(g.order):
        term = jets.contract(term, m, 1, 0)
        acc = acc + term
    return jets.contract(acc, g0_inv_jet, 1, 0)


#: Laplace expansion over rows 0 and 1: one row (c, d, e, f) per column pair
#: c < d with complement e < f, whose term is sign(c, d, e, f) *
#: (g[0,c] g[1,d] - g[0,d] g[1,c]) * (g[2,e] g[3,f] - g[2,f] g[3,e]).
_C, _D, _E, _F = np.array([(c, d, *(k for k in range(4) if k not in (c, d))) for c, d in itertools.combinations(range(4), 2)]).T
_LAPLACE_SIGNS = EPS4[_C, _D, _E, _F]
#: (row, column) of the left and right factors of the 24 minor products.
_MINOR_LEFT = (np.repeat([0, 0, 2, 2], 6), np.concatenate([_C, _D, _E, _F]))
_MINOR_RIGHT = (np.repeat([1, 1, 3, 3], 6), np.concatenate([_D, _C, _F, _E]))


def determinant4(g: Jet) -> Jet:
    """Determinant of a 4x4 jet matrix, or of each of a stack of them
    (Laplace expansion over rows 0 and 1).

    All 24 minor products are one stacked `_mul_raw`, the six top-times-bottom
    products a second; each row gets the operations a scalar jet product would
    apply, and the six terms are added in expansion order.
    """
    prods = jets._mul_raw(g.c[(..., *_MINOR_LEFT, slice(None))], g.c[(..., *_MINOR_RIGHT, slice(None))], g.order)
    top = prods[..., 0:6, :] - prods[..., 6:12, :]
    bot = prods[..., 12:18, :] - prods[..., 18:24, :]
    terms = jets._mul_raw(top, bot, g.order) * _LAPLACE_SIGNS[:, None]
    return Jet._of(g.order, terms[..., 0, :] + terms[..., 1, :] + terms[..., 2, :] + terms[..., 3, :] + terms[..., 4, :] + terms[..., 5, :])


def volume_form(g: Jet, orientation) -> Jet:
    """mu_ijkl = orientation * sqrt(det g) * eps_ijkl as a jet tensor; g and
    orientation (+-1) may carry a leading point axis."""
    s = jets.sqrt(determinant4(g)) * orientation
    c = s.c[..., None, None, None, None, :] * EPS4[..., None]
    return Jet._of(s.order, c)


def raise_axis(t: Jet, ginv: Jet, axis: int) -> Jet:
    """Raise the index at the given tensor-axis position."""
    return jets.moveaxis(jets.contract(ginv, t, 1, axis), 0, axis)


def raise_pair(t: Jet, ginv: Jet, a: int, b: int) -> Jet:
    return raise_axis(raise_axis(t, ginv, a), ginv, b)


def form_inner(t: Jet, form: Jet, ginv: Jet, slots: tuple[int, int] = (0, 1)) -> Jet:
    """Half-tensor-norm inner product of the 2-form jet `form` with the
    antisymmetric slot pair `slots` of t; the other slots of t stay, in order."""
    return 0.5 * jets.contract(t, raise_pair(form, ginv, 0, 1), slots, (0, 1))


def wedge11(a: Jet, b: Jet) -> Jet:
    """(a ^ b)_ij = a_i b_j - a_j b_i for 1-form jets."""
    t = jets.outer(a, b)
    return t - jets.moveaxis(t, 0, 1)


def ext_d_1form(a: Jet) -> Jet:
    """(da)_ij = d_i a_j - d_j a_i."""
    t = jets.partials(a)
    return t - jets.moveaxis(t, 0, 1)


def ext_d_2form(phi: Jet) -> Jet:
    """(d phi)_ijk = d_i phi_jk - d_j phi_ik + d_k phi_ij."""
    t = jets.partials(phi)
    return t - jets.moveaxis(t, 1, 0) + jets.moveaxis(t, (0, 1, 2), (2, 0, 1))


def star_operator(mu: Jet, ginv: Jet) -> Jet:
    """The Hodge star on 2-forms as a rank-4 tensor, star_ijkl = (1/2) mu_ij^kl,
    so that (*t)_ij = sum_kl star_ijkl t_kl on any antisymmetric slot pair."""
    return 0.5 * raise_pair(mu, ginv, 2, 3)


def kn_jet(h: Jet, g: Jet) -> Jet:
    """Kulkarni-Nomizu product of symmetric 2-tensor jets.

    (h kn g)_ijkl = h_ik g_jl + h_jl g_ik - h_il g_jk - h_jk g_il
    """
    hg = jets.outer(h, g)  # h_ab g_cd on axes (a,b,c,d)
    gh = jets.outer(g, h)
    t = jets.moveaxis(hg, (0, 1, 2, 3), (0, 2, 1, 3))  # h_ik g_jl
    t = t + jets.moveaxis(gh, (0, 1, 2, 3), (0, 2, 1, 3))  # + g_ik h_jl
    t = t - jets.moveaxis(hg, (0, 1, 2, 3), (0, 3, 1, 2))  # - h_il g_jk
    t = t - jets.moveaxis(gh, (0, 1, 2, 3), (0, 3, 1, 2))  # - g_il h_jk
    return t


def frame_components(values: np.ndarray, frame: np.ndarray) -> np.ndarray:
    """Express a fully covariant tensor's values in an orthonormal frame.

    frame[a] holds the coordinate components of the frame vector e_a. Each
    axis in turn is brought to the front, flattened against the rest, and
    multiplied by `frame` in one np.matmul. A frame of shape (P, 4, 4) takes
    values with the same leading point axis, which stays outermost in the
    matmul batch, so each point gets the product, and the bits, it gets alone.
    The frame is made contiguous first: np.matmul multiplies a strided
    matrix by a vector in its own loop, whose sums round unlike BLAS's.
    """
    frame = np.ascontiguousarray(frame)
    out = np.asarray(values)
    lead, ndim = frame.ndim - 2, out.ndim
    pre, points = tuple(range(lead)), out.shape[:lead]
    for axis in range(lead, ndim):
        rest = out.shape[lead:axis] + out.shape[axis + 1 :]
        flat = out.transpose((*pre, axis, *range(lead, axis), *range(axis + 1, ndim))).reshape(points + (out.shape[axis], -1))
        out = np.matmul(frame, flat).reshape(points + frame.shape[-2:-1] + rest)
        out = out.transpose((*pre, *range(lead + 1, axis + 1), lead, *range(axis + 1, ndim)))
    return out
