"""Truncated multivariate Taylor arithmetic in four coordinates.

A jet stores the Taylor coefficients c[alpha] = (d^alpha f / alpha!) of a
scalar function at a base point, for every multi-index alpha = (i1,i2,i3,i4)
with |alpha| <= order <= 4 (70 coefficients at order 4). Ring operations are
exact truncated-polynomial operations, so the coefficients of a product are
the discrete convolution of the factors' coefficients. Elementary functions
are applied by composing their univariate Taylor expansion about the
constant term with the nilpotent part of the argument.

Coefficient arrays may carry leading tensor axes: a `Jet` with `c` of shape
(4, 4, ncoef) is a 4x4 matrix of scalar jets, and arithmetic broadcasts over
the leading axes exactly like numpy. The coefficient axis is always last.

Elementwise products (`_mul_raw`) gather the convolution pairs along the
coefficient axis, multiply, and sum each output coefficient's segment.
Tensor contractions (`contract`, and `outer` as the case with no summed
axes) put the pair axis first instead: both factors are gathered into
(ncoef, pairs-per-coefficient * summed, free) blocks, so a single batched
matmul sums over the convolution pairs and the contracted axes together
inside BLAS, and never materialises the broadcast elementwise product.

Coefficients are Taylor coefficients, not raw derivatives; `derivative`
applies the alpha! conversion at the API boundary.
"""

from __future__ import annotations

import itertools
import math

import numpy as np

from .errors import DomainError, JetOrderError

MAX_ORDER = 4
NVARS = 4


def _multi_indices() -> tuple[tuple[int, ...], ...]:
    out = []
    for deg in range(MAX_ORDER + 1):
        for alpha in itertools.product(range(deg + 1), repeat=NVARS):
            if sum(alpha) == deg:
                out.append(alpha)
    return tuple(out)


#: All multi-indices with |alpha| <= 4, graded then lexicographic.
MULTI_INDICES = _multi_indices()
INDEX = {alpha: i for i, alpha in enumerate(MULTI_INDICES)}
#: Coefficient count per order: (1, 5, 15, 35, 70).
NCOEF = tuple(sum(1 for a in MULTI_INDICES if sum(a) <= o) for o in range(MAX_ORDER + 1))


def _build_mul_tables():
    """Sparse convolution tables, one per truncation order.

    Each table is (ia, ib, starts): a sorted-by-output list of coefficient
    index pairs and the reduceat segment starts, so that a truncated
    elementwise product is one gather, one elementwise multiply, and one
    segmented sum. `_build_contract_tables` regroups the same pairs for
    tensor contractions.
    """
    tables = []
    for order in range(MAX_ORDER + 1):
        n = NCOEF[order]
        entries = []
        for i in range(n):
            a = MULTI_INDICES[i]
            da = sum(a)
            for j in range(n):
                b = MULTI_INDICES[j]
                if da + sum(b) <= order:
                    k = INDEX[tuple(x + y for x, y in zip(a, b))]
                    entries.append((k, i, j))
        entries.sort()
        ia = np.array([e[1] for e in entries], dtype=np.intp)
        ib = np.array([e[2] for e in entries], dtype=np.intp)
        ks = np.array([e[0] for e in entries], dtype=np.intp)
        starts = np.searchsorted(ks, np.arange(n))
        tables.append((ia, ib, starts))
    return tables


def _build_contract_tables(mul_tables):
    """The convolution pairs of each `_MUL` table, one row per output coefficient.

    Each table is (ia, ib, width): row k of the flattened (ncoef, width)
    index arrays lists the pairs whose product lands in coefficient k, padded
    to the longest segment with pairs whose a-side index is ncoef, a zero
    slab appended by `contract`. Gathering along the pair axis then lays
    every coefficient's pairs side by side with the contracted axes, so one
    batched matmul over the coefficient axis sums both (pair-axis first).
    Padding costs 495 -> 1120 pairs at order 4, 165 -> 280 at order 3, and
    buys one BLAS call in place of a segmented sum over the product.
    """
    tables = []
    for ia, ib, starts in mul_tables:
        n = len(starts)
        bounds = np.append(starts, len(ia))
        width = int(np.diff(bounds).max())
        pa = np.full((n, width), n, dtype=np.intp)
        pb = np.zeros((n, width), dtype=np.intp)
        for k in range(n):
            lo, hi = bounds[k], bounds[k + 1]
            pa[k, : hi - lo] = ia[lo:hi]
            pb[k, : hi - lo] = ib[lo:hi]
        tables.append((pa.ravel(), pb.ravel(), width))
    return tables


def _build_deriv_tables():
    """Gather tables for d/dx_m: src coefficient index and integer factor."""
    per_order: list = [None]
    for order in range(1, MAX_ORDER + 1):
        axes = []
        n_out = NCOEF[order - 1]
        for m in range(NVARS):
            src = np.empty(n_out, dtype=np.intp)
            mult = np.empty(n_out)
            for b in range(n_out):
                beta = list(MULTI_INDICES[b])
                mult[b] = beta[m] + 1
                beta[m] += 1
                src[b] = INDEX[tuple(beta)]
            axes.append((src, mult))
        per_order.append(axes)
    return per_order


_MUL = _build_mul_tables()
_CONTRACT = _build_contract_tables(_MUL)
_DERIV = _build_deriv_tables()


def _mul_raw(ca: np.ndarray, cb: np.ndarray, order: int) -> np.ndarray:
    ia, ib, starts = _MUL[order]
    p = ca[..., ia] * cb[..., ib]
    return np.add.reduceat(p, starts, axis=-1)


def _merge_points(pa, pb):
    if pa is None:
        return pb
    if pb is None or pa == pb:
        return pa
    raise ValueError(f"jets have different base points: {pa} vs {pb}")


class Jet:
    """A (tensor of) truncated Taylor polynomial(s) in x1..x4.

    Attributes:
      order: truncation order, 0..4.
      c: ndarray of shape leading_shape + (NCOEF[order],).
      point: optional base point, checked for equality in mixed arithmetic.
    """

    __slots__ = ("order", "c", "point")

    def __init__(self, order: int, c: np.ndarray, point: tuple | None = None):
        if not 0 <= order <= MAX_ORDER:
            raise JetOrderError(f"jet order must be in 0..{MAX_ORDER}, got {order}")
        c = np.asarray(c, dtype=float)
        if c.shape[-1] != NCOEF[order]:
            raise ValueError(f"coefficient axis has {c.shape[-1]} entries, expected {NCOEF[order]}")
        self.order = order
        self.c = c
        self.point = point

    # -- constructors -------------------------------------------------------

    @classmethod
    def constant(cls, value, order: int, point: tuple | None = None) -> "Jet":
        value = np.asarray(value, dtype=float)
        c = np.zeros(value.shape + (NCOEF[order],))
        c[..., 0] = value
        return cls(order, c, point)

    @classmethod
    def coordinate(cls, i: int, p, order: int) -> "Jet":
        """Jet of the coordinate function x_{i+1} at base point p."""
        if not 0 <= i < NVARS:
            raise ValueError(f"coordinate index {i} out of range")
        p = tuple(float(v) for v in p)
        c = np.zeros(NCOEF[order])
        c[0] = p[i]
        if order >= 1:
            e = [0, 0, 0, 0]
            e[i] = 1
            c[INDEX[tuple(e)]] = 1.0
        return cls(order, c, p)

    # -- basic queries -------------------------------------------------------

    @property
    def value(self):
        """Constant term: the value of the represented function."""
        return self.c[..., 0]

    @property
    def shape(self) -> tuple:
        return self.c.shape[:-1]

    def coeff(self, alpha) -> np.ndarray:
        """Taylor coefficient for the multi-index alpha."""
        alpha = tuple(int(a) for a in alpha)
        if sum(alpha) > self.order:
            raise JetOrderError(f"multi-index {alpha} exceeds jet order {self.order}")
        return self.c[..., INDEX[alpha]]

    def derivative(self, alpha) -> np.ndarray:
        """Raw partial derivative d^alpha f, i.e. coeff(alpha) * alpha!."""
        alpha = tuple(int(a) for a in alpha)
        fact = 1.0
        for a in alpha:
            fact *= math.factorial(a)
        return self.coeff(alpha) * fact

    def truncate(self, order: int) -> "Jet":
        if order > self.order:
            raise JetOrderError(f"cannot extend a jet of order {self.order} to {order}")
        return Jet(order, self.c[..., : NCOEF[order]], self.point)

    def partial(self, m: int) -> "Jet":
        """Partial derivative along coordinate m; consumes one order."""
        if self.order == 0:
            raise JetOrderError("derivative requested from an order-0 jet")
        src, mult = _DERIV[self.order][m]
        return Jet(self.order - 1, self.c[..., src] * mult, self.point)

    def copy(self) -> "Jet":
        return Jet(self.order, self.c.copy(), self.point)

    def __getitem__(self, key) -> "Jet":
        """Index the leading (tensor) axes."""
        if not isinstance(key, tuple):
            key = (key,)
        return Jet(self.order, self.c[key + (slice(None),)], self.point)

    def sum(self, axis=0) -> "Jet":
        """Sum over leading tensor axes."""
        return Jet(self.order, self.c.sum(axis=axis), self.point)

    # -- ring operations -----------------------------------------------------

    def _align(self, other):
        if isinstance(other, Jet):
            o = min(self.order, other.order)
            return o, self.c[..., : NCOEF[o]], other.c[..., : NCOEF[o]], _merge_points(self.point, other.point)
        return None

    def __add__(self, other):
        al = self._align(other)
        if al is not None:
            o, ca, cb, pt = al
            return Jet(o, ca + cb, pt)
        c = self.c.copy()
        c[..., 0] = c[..., 0] + np.asarray(other)
        return Jet(self.order, c, self.point)

    __radd__ = __add__

    def __neg__(self):
        return Jet(self.order, -self.c, self.point)

    def __sub__(self, other):
        return self + (-other if isinstance(other, Jet) else -np.asarray(other))

    def __rsub__(self, other):
        return (-self) + other

    def __mul__(self, other):
        al = self._align(other)
        if al is not None:
            o, ca, cb, pt = al
            return Jet(o, _mul_raw(ca, cb, o), pt)
        return Jet(self.order, self.c * np.asarray(other)[..., None], self.point)

    __rmul__ = __mul__

    def __truediv__(self, other):
        if isinstance(other, Jet):
            return self * reciprocal(other)
        return Jet(self.order, self.c / np.asarray(other)[..., None], self.point)

    def __rtruediv__(self, other):
        return reciprocal(self) * other

    def __pow__(self, q):
        return power(self, q)

    def __repr__(self):
        return f"Jet(order={self.order}, shape={self.shape}, value={self.value!r})"


#: Public alias used in signatures: the four-variable jet.
Jet4 = Jet


def jet_arith(a: Jet, b: Jet, op: str) -> Jet:
    """Truncated ring operation on two jets with identical order and base point.

    op is one of '+', '-', '*', '/'. Division requires b.coeff(0) != 0.
    """
    if a.order != b.order:
        raise JetOrderError(f"jet orders differ: {a.order} vs {b.order}")
    _merge_points(a.point, b.point)
    if op == "+":
        return a + b
    if op == "-":
        return a - b
    if op == "*":
        return a * b
    if op == "/":
        return a / b
    raise ValueError(f"unknown jet operation {op!r}")


# -- structural helpers -------------------------------------------------------


def stack(jets, axis: int = 0) -> Jet:
    """Stack jets of equal order along a new leading axis."""
    order = min(j.order for j in jets)
    point = None
    for j in jets:
        point = _merge_points(point, j.point)
    cs = [j.c[..., : NCOEF[order]] for j in jets]
    return Jet(order, np.stack(cs, axis=axis), point)


def moveaxis(j: Jet, src: int, dst: int) -> Jet:
    """Move a leading tensor axis (coefficient axis is untouched)."""
    return Jet(j.order, np.moveaxis(j.c, src, dst), j.point)


def partials(j: Jet) -> Jet:
    """Stack of the four partial derivatives, new axis first."""
    return stack([j.partial(m) for m in range(NVARS)], axis=0)


def contract(a: Jet, b: Jet, axes_a, axes_b) -> Jet:
    """Multiply two jet tensors and sum over one or more leading-axis pairs.

    out[sa..., sb...] = sum a[.. p at axes_a ..] * b[.. p at axes_b ..]
    where the summed axes are matched pairwise.

    The coefficient axis goes first: a becomes (ncoef + 1, P, A) with a zero
    slab last and b becomes (ncoef, P, B), where P, A and B are the flattened
    contracted, free-a and free-b axes. Gathering the `_CONTRACT` pairs gives
    (ncoef, width * P, A) and (ncoef, width * P, B), and one batched matmul
    sums over pairs and contracted axes at once into (ncoef, A, B).
    """
    if isinstance(axes_a, int):
        axes_a = (axes_a,)
        axes_b = (axes_b,)
    o = min(a.order, b.order)
    n = NCOEF[o]
    last_a, last_b = a.c.ndim - 1, b.c.ndim - 1
    free_a = tuple(ax for ax in range(last_a) if ax not in axes_a)
    free_b = tuple(ax for ax in range(last_b) if ax not in axes_b)
    summed = tuple(a.c.shape[ax] for ax in axes_a)
    sa = tuple(a.c.shape[ax] for ax in free_a)
    sb = tuple(b.c.shape[ax] for ax in free_b)
    p, na, nb = math.prod(summed), math.prod(sa), math.prod(sb)
    ia, ib, width = _CONTRACT[o]
    # slab n of fa stays zero: the padding pairs of `_CONTRACT` point at it
    fa = np.empty((n + 1, p, na))
    fa[n] = 0.0
    fa[:n].reshape((n,) + summed + sa)[...] = a.c[..., :n].transpose((last_a, *axes_a, *free_a))
    fb = np.ascontiguousarray(b.c[..., :n].transpose((last_b, *axes_b, *free_b))).reshape(n, p, nb)
    ga = fa.take(ia, axis=0).reshape(n, width * p, na)
    gb = fb.take(ib, axis=0).reshape(n, width * p, nb)
    out = np.matmul(ga.transpose(0, 2, 1), gb).transpose(1, 2, 0)
    return Jet(o, out.reshape(sa + sb + (n,)), _merge_points(a.point, b.point))


def outer(a: Jet, b: Jet) -> Jet:
    """Tensor product: out[sa..., sb...] = a[sa...] * b[sb...]."""
    return contract(a, b, (), ())


# -- reciprocal, powers, elementary functions ---------------------------------


def reciprocal(b: Jet) -> Jet:
    """1/b for a jet with nonzero constant term."""
    b0 = b.c[..., 0]
    if np.any(b0 == 0.0):
        raise DomainError("division by jet with zero constant term")
    u = b.c / b0[..., None]
    u[..., 0] = 0.0
    # (1+u)^-1 = 1 - u + u^2 - u^3 + u^4 truncated; u is nilpotent.
    acc = np.zeros_like(u)
    acc[..., 0] = 1.0
    term = np.zeros_like(u)
    term[..., 0] = 1.0
    for k in range(1, b.order + 1):
        term = _mul_raw(term, u, b.order)
        acc += term if k % 2 == 0 else -term
    return Jet(b.order, acc / b0[..., None], b.point)


def power(a: Jet, q) -> Jet:
    """a**q. Integer q by repeated squaring; otherwise via exp(q*log(a))."""
    qf = float(q)
    if qf == int(qf):
        n = int(qf)
        if n == 0:
            return Jet.constant(np.ones(a.shape), a.order, a.point)
        base = a if n > 0 else reciprocal(a)
        n = abs(n)
        result = None
        while n:
            if n & 1:
                result = base if result is None else result * base
            n >>= 1
            if n:
                base = base * base
        return result
    return exp(qf * log(a))


def _compose(a: Jet, fk: np.ndarray) -> Jet:
    """Sum_k fk[..., k] * (a - a0)^k, the univariate Taylor composition."""
    out = np.zeros_like(a.c)
    out[..., 0] = fk[..., 0]
    if a.order == 0:
        return Jet(0, out, a.point)
    v = a.c.copy()
    v[..., 0] = 0.0
    p = v
    out += fk[..., 1, None] * p
    for k in range(2, a.order + 1):
        p = _mul_raw(p, v, a.order)
        out += fk[..., k, None] * p
    return Jet(a.order, out, a.point)


def _cycle_fk(a0: np.ndarray, order: int, cycle) -> np.ndarray:
    cols = [cycle[k % 4] / math.factorial(k) for k in range(order + 1)]
    return np.stack(cols, axis=-1)


def sin(a: Jet) -> Jet:
    a0 = a.c[..., 0]
    s, c = np.sin(a0), np.cos(a0)
    return _compose(a, _cycle_fk(a0, a.order, (s, c, -s, -c)))


def cos(a: Jet) -> Jet:
    a0 = a.c[..., 0]
    s, c = np.sin(a0), np.cos(a0)
    return _compose(a, _cycle_fk(a0, a.order, (c, -s, -c, s)))


def exp(a: Jet) -> Jet:
    e0 = np.exp(a.c[..., 0])
    fk = np.stack([e0 / math.factorial(k) for k in range(a.order + 1)], axis=-1)
    return _compose(a, fk)


def log(a: Jet) -> Jet:
    a0 = a.c[..., 0]
    if np.any(a0 <= 0.0):
        raise DomainError("log of a jet with non-positive constant term")
    cols = [np.log(a0)]
    for k in range(1, a.order + 1):
        cols.append((-1.0) ** (k - 1) / (k * a0**k))
    return _compose(a, np.stack(cols, axis=-1))


def sqrt(a: Jet) -> Jet:
    a0 = a.c[..., 0]
    if np.any(a0 <= 0.0):
        raise DomainError("sqrt of a jet with non-positive constant term")
    binom = [1.0, 0.5, -0.125, 0.0625, -0.0390625]  # C(1/2, k)
    cols = [binom[k] * a0 ** (0.5 - k) for k in range(a.order + 1)]
    return _compose(a, np.stack(cols, axis=-1))


def sinh(a: Jet) -> Jet:
    a0 = a.c[..., 0]
    s, c = np.sinh(a0), np.cosh(a0)
    return _compose(a, _cycle_fk(a0, a.order, (s, c, s, c)))


def cosh(a: Jet) -> Jet:
    a0 = a.c[..., 0]
    s, c = np.sinh(a0), np.cosh(a0)
    return _compose(a, _cycle_fk(a0, a.order, (c, s, c, s)))


def tan(a: Jet) -> Jet:
    return sin(a) / cos(a)


def tanh(a: Jet) -> Jet:
    return sinh(a) / cosh(a)


def atan(a: Jet) -> Jet:
    t = a.c[..., 0]
    d = 1.0 + t * t
    cols = [np.arctan(t), 1.0 / d, -t / d**2, (3.0 * t * t - 1.0) / (3.0 * d**3), t * (1.0 - t * t) / d**4]
    return _compose(a, np.stack(cols[: a.order + 1], axis=-1))
