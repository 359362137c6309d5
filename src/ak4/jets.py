"""Truncated multivariate Taylor arithmetic in four coordinates.

A jet stores the Taylor coefficients c[alpha] = (d^alpha f / alpha!) of a
scalar function at a base point, for every multi-index alpha = (i1,i2,i3,i4)
with |alpha| <= order <= 4 (70 coefficients at order 4). A jet is only its
order and coefficients: it does not record the base point, which lives once
per sample point on `charts.StructureBatch.points`, and arithmetic assumes
both operands were expanded at the same point. Ring operations are
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

The tensor kernels (`moveaxis`, `partials`, `contract` and `outer`) take a
leading point axis, which batches the same work over many sample points
(`charts.structure_at` runs the structure stage on all of a command's points
at once); a single point is a batch of one. The tensor axes they name count
after it. Elementwise arithmetic broadcasts over it like any leading axis.
`contract` keeps it out of the contraction: it goes outermost in the matmul
batch, (P, ncoef, ., .), so each point gets the BLAS call it would get alone
and the same bits. So k independent computations of one shape can run as
one kernel call over k*P rows: `concat` stacks their jets on the point
axis, and `split` cuts the result back into k blocks of P rows, each with
the bits of its computation alone (`riemann` and `bianchi_bach` stack the
second-order report's same-shape work this way).

What these kernels derive from shapes alone is computed once. `contract`
reads its permutations, reshape targets and `_CONTRACT` table from a plan
cached by the two coefficient-array shapes (whose last axis fixes each
operand's order; without the point axis, so no point count enters a key)
and the summed axes; `moveaxis` is a bare transpose by a permutation cached
by (ndim, src, dst). Both caches fill lazily, one entry per shape the
pipeline meets (a few dozen), and neither moves a bit: a plan holds exactly
what `contract` used to recompute on every call, so the matmul operands are
the same values in the same layout, and np.moveaxis is itself a transpose by
the same permutation.

`contract` allocates only its result. It gathers its operands into one
module-level workspace, `_ARENA`, a float64 arena that only grows, to the
largest size the gathered operands of one call need (a batch is contracted
about CONTRACT_CHUNK_BYTES a slice); each plan cuts its views of the arena
once per point count and keeps them, and a growth drops every view of the
old arena, so it is freed. The gathers write into the views
(`take(..., out=, mode="clip")`; the default mode "raise" would buffer its
output), and the matmul result is a fresh array, so no returned jet aliases
the arena. Fresh gathered operands went through glibc's
allocator on every call, and the large ones through mmap and page faults
whose count depends on the allocator's dynamic thresholds. The arena is
shared by every call, so `contract` is not thread-safe: ak4 runs on one
thread.

At order 0 a jet is its value, and each kernel takes a short path with the
bits of its general one, keeping its `DomainError` check: `_mul_raw` is
`ca * cb` (the one convolution pair's segmented sum is that product),
`contract` goes through `_contract_values`, which lays its operands out as
`_contract` lays out the gathered ones, without the arena or the pair
gather, so the matmul is the same BLAS call; `reciprocal` is `1.0 / b`, and
`_compose` (sqrt, exp, log and the trigonometric functions) returns f(a0).
The structure stage's self-duality checks and every value-only reader
run at order 0.

A report point builds about a thousand jets, so their construction is kept
cheap too. `Jet.__init__` converts and checks its input for outside callers;
the kernels here build their results with `Jet._of`, which skips both, since
every array they make is already float64 with the right coefficient axis.
`partials` gathers all four derivatives at once from a (4, ncoef) table, and
`a - b` subtracts directly, which IEEE 754 defines to equal `a + (-b)`.

Coefficients are Taylor coefficients, not raw derivatives: the entry
`c[..., INDEX[alpha]]` is d^alpha f / alpha!.

The degree-k coefficients of any result depend only on the degree <= k
coefficients of its inputs (Griewank & Walther, Evaluating Derivatives, 2nd
ed., ch. 13), so a jet can be truncated before it is used, or built at a
lower order, without changing what its readers see. Callers build each jet
only to the order its readers differentiate: `charts.structure_at` truncates
J to order 2 and builds the jets made from it at that order, keeps the
inverse metric one order below g, and runs its checks on order-0
truncations; the Weyl tensor takes g at the curvature's order, and
value-only readers truncate their inputs to order 0. A jet truncated too far cannot give
a silently wrong answer: `partial` and `partials` raise JetOrderError when
its order runs out. The law holds under overflow too: `_compose` adds its
k-th term fk_k (a - a0)^k only from degree k up, so an infinite fk_k never
meets the exact zeros below degree k (inf * 0 is NaN).

Elementwise products are bit-identical under truncation. A contraction sums
the convolution pairs along an axis padded to the order's widest
coefficient, so a BLAS dot product over it may round differently at another
order. Each truncation named above is pinned bit for bit against the
full-order result by the kernel tests.
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
    """Gather tables for d/dx_m, one (src, mult) pair of (4, ncoef) arrays per
    order: row m holds the source coefficient index and the integer factor."""
    per_order: list = [None]
    for order in range(1, MAX_ORDER + 1):
        n_out = NCOEF[order - 1]
        src = np.empty((NVARS, n_out), dtype=np.intp)
        mult = np.empty((NVARS, n_out))
        for m in range(NVARS):
            for b in range(n_out):
                beta = list(MULTI_INDICES[b])
                mult[m, b] = beta[m] + 1
                beta[m] += 1
                src[m, b] = INDEX[tuple(beta)]
        per_order.append((src, mult))
    return per_order


_MUL = _build_mul_tables()
_CONTRACT = _build_contract_tables(_MUL)
_DERIV = _build_deriv_tables()
#: `contract` plans and `moveaxis` permutations, filled on first use of each
#: operand shape and axis choice; see the module docstring.
_PLANS: dict[tuple, tuple] = {}
_PERMS: dict[tuple, tuple[int, ...]] = {}
#: Most bytes the gathered operands and the product of one `contract` take
#: at once: a larger batch is contracted a slice of points at a time, which
#: bounds the memory of a batch and moves no bit.
CONTRACT_CHUNK_BYTES = 1 << 20
#: The workspace of `_contract`: one float64 arena that only grows, to the
#: largest size the gathered operands of one call need, and that each plan cuts
#: its views from (see the module docstring). Single-threaded.
_ARENA = np.empty(0)


def _mul_raw(ca: np.ndarray, cb: np.ndarray, order: int) -> np.ndarray:
    if order == 0:  # one pair, (0, 0): the segmented sum of one product is that product
        return ca * cb
    ia, ib, starts = _MUL[order]
    p = ca[..., ia] * cb[..., ib]
    return np.add.reduceat(p, starts, axis=-1)


class Jet:
    """A (tensor of) truncated Taylor polynomial(s) in x1..x4.

    Attributes:
      order: truncation order, 0..4.
      c: ndarray of shape leading_shape + (NCOEF[order],).
    """

    __slots__ = ("order", "c")

    def __init__(self, order: int, c: np.ndarray):
        if not 0 <= order <= MAX_ORDER:
            raise JetOrderError(f"jet order must be in 0..{MAX_ORDER}, got {order}")
        c = np.asarray(c, dtype=float)
        if c.shape[-1] != NCOEF[order]:
            raise ValueError(f"coefficient axis has {c.shape[-1]} entries, expected {NCOEF[order]}")
        self.order = order
        self.c = c

    @classmethod
    def _of(cls, order: int, c: np.ndarray) -> "Jet":
        """A jet of coefficients a kernel built, without the checks of `__init__`.

        The caller guarantees what `__init__` would check: `c` is a float64
        array whose last axis has NCOEF[order] entries.
        """
        jet = object.__new__(cls)
        jet.order = order
        jet.c = c
        return jet

    # -- constructors -------------------------------------------------------

    @classmethod
    def constant(cls, value, order: int) -> "Jet":
        value = np.asarray(value, dtype=float)
        c = np.zeros(value.shape + (NCOEF[order],))
        c[..., 0] = value
        return cls(order, c)

    @classmethod
    def coordinate(cls, i: int, p, order: int) -> "Jet":
        """Jet of the coordinate function x_{i+1} at base point p, or at each
        point of an array p of shape (..., 4), whose leading axes the jet keeps."""
        if not 0 <= i < NVARS:
            raise ValueError(f"coordinate index {i} out of range")
        p = np.asarray(p, dtype=float)
        c = np.zeros(p.shape[:-1] + (NCOEF[order],))
        c[..., 0] = p[..., i]
        if order >= 1:
            e = [0, 0, 0, 0]
            e[i] = 1
            c[..., INDEX[tuple(e)]] = 1.0
        return cls(order, c)

    # -- basic queries -------------------------------------------------------

    @property
    def value(self):
        """Constant term: the value of the represented function."""
        return self.c[..., 0]

    @property
    def shape(self) -> tuple:
        return self.c.shape[:-1]

    def truncate(self, order: int) -> "Jet":
        if order > self.order:
            raise JetOrderError(f"cannot extend a jet of order {self.order} to {order}")
        return Jet._of(order, self.c[..., : NCOEF[order]])

    def partial(self, m: int) -> "Jet":
        """Partial derivative along coordinate m; consumes one order."""
        if self.order == 0:
            raise JetOrderError("derivative requested from an order-0 jet")
        src, mult = _DERIV[self.order]
        return Jet._of(self.order - 1, self.c[..., src[m]] * mult[m])

    def __getitem__(self, key) -> "Jet":
        """Index the leading (tensor) axes."""
        if not isinstance(key, tuple):
            key = (key,)
        return Jet._of(self.order, self.c[key + (slice(None),)])

    # -- ring operations -----------------------------------------------------

    def _align(self, other):
        if isinstance(other, Jet):
            o = min(self.order, other.order)
            return o, self.c[..., : NCOEF[o]], other.c[..., : NCOEF[o]]
        return None

    def __add__(self, other):
        al = self._align(other)
        if al is not None:
            o, ca, cb = al
            return Jet._of(o, ca + cb)
        c = self.c.copy()
        c[..., 0] = c[..., 0] + np.asarray(other)
        return Jet._of(self.order, c)

    __radd__ = __add__

    def __neg__(self):
        return Jet._of(self.order, -self.c)

    def __sub__(self, other):
        # a - b is a + (-b) in IEEE 754, without building -b
        al = self._align(other)
        if al is not None:
            o, ca, cb = al
            return Jet._of(o, ca - cb)
        c = self.c.copy()
        c[..., 0] = c[..., 0] - np.asarray(other)
        return Jet._of(self.order, c)

    def __rsub__(self, other):
        return (-self) + other

    def __mul__(self, other):
        al = self._align(other)
        if al is not None:
            o, ca, cb = al
            return Jet._of(o, _mul_raw(ca, cb, o))
        return Jet._of(self.order, self.c * np.asarray(other)[..., None])

    __rmul__ = __mul__

    def __truediv__(self, other):
        if isinstance(other, Jet):
            return self * reciprocal(other)
        return Jet._of(self.order, self.c / np.asarray(other)[..., None])

    def __rtruediv__(self, other):
        return reciprocal(self) * other

    def __pow__(self, q):
        return power(self, q)

    def __repr__(self):
        return f"Jet(order={self.order}, shape={self.shape}, value={self.value!r})"


# -- structural helpers -------------------------------------------------------


def _move_perm(ndim: int, src, dst) -> tuple[int, ...]:
    """The permutation np.moveaxis(x, src, dst) transposes an x of ndim axes by,
    read off a zero-stride probe whose axis k has length k + 1."""
    probe = np.broadcast_to(0.0, tuple(range(1, ndim + 1)))
    return tuple(n - 1 for n in np.moveaxis(probe, src, dst).shape)


def moveaxis(j: Jet, src, dst) -> Jet:
    """Move tensor axes, like np.moveaxis; src and dst count the tensor axes
    after the point axis (the point and coefficient axes are untouched)."""
    key = (j.c.ndim, src, dst)
    perm = _PERMS.get(key)
    if perm is None:
        perm = _PERMS[key] = (0,) + tuple(1 + p for p in _move_perm(j.c.ndim - 1, src, dst))
    return Jet._of(j.order, j.c.transpose(perm))


def partials(j: Jet) -> Jet:
    """Stack of the four partial derivatives, new axis first after the point axis.

    One gather over the `_DERIV` table of all four axes; each coefficient is
    the product `partial` forms, laid out as np.stack of the four would lay them out.
    """
    if j.order == 0:
        raise JetOrderError("derivative requested from an order-0 jet")
    src, mult = _DERIV[j.order]
    d = j.c[..., src]  # (P, ..., m, ncoef), a new array
    d *= mult
    last = d.ndim - 1
    return Jet._of(j.order - 1, np.ascontiguousarray(d.transpose(0, last - 1, *range(1, last - 1), last)))


def _contract_plan(shape_a: tuple, shape_b: tuple, axes_a: tuple, axes_b: tuple) -> tuple:
    """Everything `contract` derives from its operands' shapes and axes alone.

    The shapes leave out the point axis, and the permutations and reshape
    targets keep it first (as -1 in the targets); `_views` puts its length
    in front of the shapes it lays out. The entries before the last two are
    the shapes `take` gives the gathered operands; the last two are the
    workspace views of the plan by point count (`_views`) and the bytes per
    point of the gathered operands and the product.
    """
    o = min(NCOEF.index(shape_a[-1]), NCOEF.index(shape_b[-1]))
    n = NCOEF[o]
    last_a, last_b = len(shape_a) - 1, len(shape_b) - 1
    free_a = tuple(ax for ax in range(last_a) if ax not in axes_a)
    free_b = tuple(ax for ax in range(last_b) if ax not in axes_b)
    summed = tuple(shape_a[ax] for ax in axes_a)
    sa = tuple(shape_a[ax] for ax in free_a)
    sb = tuple(shape_b[ax] for ax in free_b)
    p, na, nb = math.prod(summed), math.prod(sa), math.prod(sb)
    ia, ib, width = _CONTRACT[o]
    return (
        o,
        n,
        (0,) + tuple(1 + ax for ax in (last_a, *axes_a, *free_a)),
        (0,) + tuple(1 + ax for ax in (last_b, *axes_b, *free_b)),
        (n + 1,) + summed + sa,
        ia,
        ib,
        (-1, n, width * p, na),
        (-1, n, width * p, nb),
        (-1,) + sa + sb + (n,),
        (n * width,) + summed + sa,
        (n * width,) + summed + sb,
        {},
        8 * n * (width * p * (na + nb) + na * nb),
    )


def contract(a: Jet, b: Jet, axes_a, axes_b) -> Jet:
    """Multiply two jet tensors and sum over one or more tensor-axis pairs,
    at every point.

    out[k, sa..., sb...] = sum a[k, .. p at axes_a ..] * b[k, .. p at axes_b ..]
    where the summed axes are matched pairwise. Axis 0 of both operands is
    a point axis of the same length: axes_a and axes_b count the tensor axes
    after it, and the result keeps it first. Point k of the result is, bit
    for bit, the contraction of a batch of point k alone.

    The coefficient axis goes first: a becomes (ncoef + 1, P, A) with a zero
    slab last and b becomes (ncoef, P, B), where P, A and B are the flattened
    contracted, free-a and free-b axes. Gathering the `_CONTRACT` pairs gives
    (ncoef, width * P, A) and (ncoef, width * P, B), and one batched matmul
    sums over pairs and contracted axes at once into (ncoef, A, B). The point
    axis goes in front of all of these, outermost in the matmul batch, so
    every point gets the same BLAS call as alone. The permutations and
    shapes of these steps come from a plan cached per operand shapes
    (without the point count) and axes, and the gathered operands go into
    the workspace views of the plan (see the module docstring). A batch
    whose gathered operands would pass CONTRACT_CHUNK_BYTES is contracted a
    slice of points at a time, with the same calls per point.
    """
    if isinstance(axes_a, int):
        axes_a = (axes_a,)
        axes_b = (axes_b,)
    ca, cb = a.c, b.c
    key = (ca.shape[1:], cb.shape[1:], axes_a, axes_b)
    plan = _PLANS.get(key)
    if plan is None:
        plan = _PLANS[key] = _contract_plan(*key)
    kernel = _contract_values if plan[0] == 0 else _contract
    step = max(1, CONTRACT_CHUNK_BYTES // plan[-1])
    if len(ca) > step:
        chunks = [kernel(ca[k : k + step], cb[k : k + step], plan) for k in range(0, len(ca), step)]
        return Jet._of(plan[0], np.concatenate(chunks))
    return Jet._of(plan[0], kernel(ca, cb, plan))


def _contract(ca: np.ndarray, cb: np.ndarray, plan: tuple) -> np.ndarray:
    """The coefficients of `contract` by one plan."""
    _, n, perm_a, perm_b, fa_shape, ia, ib, ga_shape, gb_shape, out_shape, ga_take, gb_take, views, _ = plan
    lead = ca.shape[:1]
    view = views.get(lead)
    if view is None:
        view = views[lead] = _views(lead, fa_shape, ga_take, gb_take, ga_shape, gb_shape)
    fa, ga_out, gb_out, ga, gb = view
    # slab n of fa must be zero: the padding pairs of `_CONTRACT` point at it
    fa[:, n] = 0.0
    fa[:, :n] = ca[..., :n].transpose(perm_a)
    # mode="clip" writes into `out` directly; the default "raise" would buffer it
    fa.take(ia, axis=1, out=ga_out, mode="clip")
    cb[..., :n].transpose(perm_b).take(ib, axis=1, out=gb_out, mode="clip")
    out = np.matmul(ga.transpose(0, 1, 3, 2), gb).transpose(0, 2, 3, 1)
    return out.reshape(out_shape)


def _contract_values(ca: np.ndarray, cb: np.ndarray, plan: tuple) -> np.ndarray:
    """The coefficients of `contract` by an order-0 plan: the one pair (0, 0)
    needs no zero slab and no gather, so the operands are laid out as
    `_contract` lays out its gathered ones, C-contiguous in fresh arrays, and
    the matmul reads them the same way (the same BLAS call, so the same bits)."""
    _, n, perm_a, perm_b, _, _, _, ga_shape, gb_shape, out_shape, *_ = plan
    ga = np.ascontiguousarray(ca[..., :n].transpose(perm_a)).reshape(ga_shape)
    gb = np.ascontiguousarray(cb[..., :n].transpose(perm_b)).reshape(gb_shape)
    return np.matmul(ga.transpose(0, 1, 3, 2), gb).transpose(0, 2, 3, 1).reshape(out_shape)


def _views(lead: tuple, fa_shape: tuple, ga_take: tuple, gb_take: tuple, ga_shape: tuple, gb_shape: tuple) -> tuple:
    """Views of the workspace for one plan and point count: fa, the
    gathered a and b as `take` writes them, and the same two as the matmul
    reads them. The arena grows to fit them if it must; a growth drops the
    views every plan cut from the old arena, which frees it."""
    global _ARENA
    shapes = [lead + fa_shape, lead + ga_take, lead + gb_take]
    sizes = [math.prod(shape) for shape in shapes]
    if _ARENA.size < sum(sizes):
        for plan in _PLANS.values():
            plan[-2].clear()
        _ARENA = np.empty(sum(sizes))
    starts = itertools.accumulate(sizes, initial=0)
    fa, ga, gb = (_ARENA[start : start + size].reshape(shape) for start, size, shape in zip(starts, sizes, shapes))
    return fa, ga, gb, ga.reshape(ga_shape), gb.reshape(gb_shape)


def outer(a: Jet, b: Jet) -> Jet:
    """Tensor product at every point: out[P, sa..., sb...] = a[P, sa...] * b[P, sb...]."""
    return contract(a, b, (), ())


def concat(parts: list[Jet]) -> Jet:
    """The jets stacked on the point axis, in order: k jets of P points become
    one batch of k*P points, which a kernel takes in one call where it took
    k, each block of P rows with the bits it gets alone. The parts have one
    order and one tensor shape; a single jet is returned as it is."""
    if len(parts) == 1:
        return parts[0]
    return Jet._of(parts[0].order, np.concatenate([p.c for p in parts]))


def split(j: Jet, k: int) -> list[Jet]:
    """The k blocks of equal length of j's point axis, views of j: what
    `concat` stacked."""
    return [Jet._of(j.order, c) for c in j.c.reshape(k, -1, *j.c.shape[1:])]


# -- reciprocal, powers, elementary functions ---------------------------------


def reciprocal(b: Jet) -> Jet:
    """1/b for a jet with nonzero constant term."""
    b0 = b.c[..., 0]
    if np.any(b0 == 0.0):
        raise DomainError("division by jet with zero constant term")
    if b.order == 0:  # the series below is its constant term, 1.0, over b0
        return Jet._of(0, 1.0 / b.c)
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
    return Jet._of(b.order, acc / b0[..., None])


def power(a: Jet, q) -> Jet:
    """a**q. Integer q by repeated squaring; otherwise via exp(q*log(a))."""
    qf = float(q)
    if qf == int(qf):
        n = int(qf)
        if n == 0:
            return Jet.constant(np.ones(a.shape), a.order)
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
    if a.order == 0:  # fk holds f(a0) alone: a fresh array of a's shape
        return Jet._of(0, fk)
    out = np.zeros_like(a.c)
    out[..., 0] = fk[..., 0]
    v = a.c.copy()
    v[..., 0] = 0.0
    # v^k starts at degree k, and so does its term (see the module docstring): the value stays exactly f(a0)
    for k in range(1, a.order + 1):
        p = v if k == 1 else _mul_raw(p, v, a.order)
        out[..., NCOEF[k - 1] :] += fk[..., k, None] * p[..., NCOEF[k - 1] :]
    return Jet._of(a.order, out)


def _cycle_fk(order: int, cycle) -> np.ndarray:
    cols = [cycle[k % 4] / math.factorial(k) for k in range(order + 1)]
    return np.stack(cols, axis=-1)


def sin(a: Jet) -> Jet:
    a0 = a.c[..., 0]
    s, c = np.sin(a0), np.cos(a0)
    return _compose(a, _cycle_fk(a.order, (s, c, -s, -c)))


def cos(a: Jet) -> Jet:
    a0 = a.c[..., 0]
    s, c = np.sin(a0), np.cos(a0)
    return _compose(a, _cycle_fk(a.order, (c, -s, -c, s)))


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
    return _compose(a, _cycle_fk(a.order, (s, c, s, c)))


def cosh(a: Jet) -> Jet:
    a0 = a.c[..., 0]
    s, c = np.sinh(a0), np.cosh(a0)
    return _compose(a, _cycle_fk(a.order, (c, s, c, s)))


def tan(a: Jet) -> Jet:
    return sin(a) / cos(a)


def tanh(a: Jet) -> Jet:
    return sinh(a) / cosh(a)


def atan(a: Jet) -> Jet:
    # t keeps an axis so that no factor becomes a numpy scalar, whose ** rounds
    # differently from an array's: one point alone and in a batch get the same bits
    t = a.c[..., :1]
    d = 1.0 + t * t
    cols = [np.arctan(t), 1.0 / d, -t / d**2, (3.0 * t * t - 1.0) / (3.0 * d**3), t * (1.0 - t * t) / d**4]
    return _compose(a, np.concatenate(cols[: a.order + 1], axis=-1))
