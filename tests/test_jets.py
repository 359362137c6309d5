"""Truncated Taylor arithmetic: frozen series, ring axioms, derivative tables."""

from __future__ import annotations

import itertools
import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from ak4 import jets
from ak4.errors import DomainError, JetOrderError
from ak4.exprs import Program, eval_float, eval_jet, parse_expr
from ak4.jets import Jet

from conftest import expr_jet
from oracles import STENCILS_ACC2, fd_taylor_coefficients


def jet_of(src: str, p, order: int = 4) -> Jet:
    return expr_jet(parse_expr(src), p, order)


def coeff(j: Jet, alpha) -> np.ndarray:
    """The Taylor coefficient of j for the multi-index alpha, d^alpha f / alpha!."""
    alpha = tuple(int(a) for a in alpha)
    if sum(alpha) > j.order:
        raise JetOrderError(f"multi-index {alpha} exceeds jet order {j.order}")
    return j.c[..., jets.INDEX[alpha]]


def random_jet(rng, order: int = 4, offset: float = 0.0) -> Jet:
    c = rng.uniform(-1.0, 1.0, jets.NCOEF[order])
    c[0] += offset
    return Jet(order, c)


class TestKnownSeries:
    def test_sine_series_along_x2(self):
        j = jet_of("sin(x2)", (0, 0, 0, 0), order=3)
        assert coeff(j, (0, 0, 0, 0)) == 0.0
        assert coeff(j, (0, 1, 0, 0)) == 1.0
        assert coeff(j, (0, 2, 0, 0)) == 0.0
        assert coeff(j, (0, 3, 0, 0)) == pytest.approx(-1.0 / 6.0, abs=1e-15)

    def test_bilinear(self):
        j = jet_of("x1*x2", (1, 2, 0, 0), order=1)
        assert j.value == 2.0
        assert coeff(j, (1, 0, 0, 0)) == 2.0
        assert coeff(j, (0, 1, 0, 0)) == 1.0

    def test_exp_cos_order4_vs_finite_differences(self):
        e = parse_expr("exp(x1)*cos(x3)")
        p = (0.3, 0.0, 0.7, 0.0)
        j = expr_jet(e, p, 4)
        fd = fd_taylor_coefficients(lambda q: eval_float(e, q), p, 4)
        scale = np.abs(fd).max()
        assert np.abs(j.c - fd).max() <= 1e-6 * max(1.0, scale)

    @pytest.mark.parametrize(
        "src",
        ["tan(x1/3)", "tanh(x2)", "atan(x3)", "sinh(x4/2)", "cosh(x1)", "log(2 + x2)", "sqrt(1.5 + x3)", "(2 + x1)^0.5"],
    )
    def test_elementary_functions_vs_finite_differences(self, src):
        e = parse_expr(src)
        p = (0.4, -0.3, 0.25, 0.15)
        j = expr_jet(e, p, 4)
        fd = fd_taylor_coefficients(lambda q: eval_float(e, q), p, 4)
        assert np.abs(j.c - fd).max() <= 2e-6 * max(1.0, np.abs(fd).max())


class TestRingStructure:
    def test_additive_identity(self):
        rng = np.random.default_rng(0)
        a = random_jet(rng)
        z = Jet.constant(0.0, 4)
        assert np.array_equal((a + z).c, a.c)

    def test_multiplicative_identity(self):
        rng = np.random.default_rng(1)
        a = random_jet(rng)
        one = Jet.constant(1.0, 4)
        assert np.abs((a * one).c - a.c).max() == 0.0

    def test_product_is_truncated_convolution(self):
        rng = np.random.default_rng(2)
        a, b = random_jet(rng), random_jet(rng)
        prod = (a * b).c
        expect = np.zeros_like(prod)
        for i, ai in enumerate(jets.MULTI_INDICES):
            for j, bj in enumerate(jets.MULTI_INDICES):
                tot = tuple(x + y for x, y in zip(ai, bj))
                if sum(tot) <= 4:
                    expect[jets.INDEX[tot]] += a.c[i] * b.c[j]
        assert np.abs(prod - expect).max() < 1e-14

    @given(st.integers(0, 10**6))
    @settings(max_examples=60, deadline=None)
    def test_ring_axioms(self, seed):
        rng = np.random.default_rng(seed)
        a, b, c = (random_jet(rng) for _ in range(3))
        scale = max(np.abs(((a * b) * c).c).max(), 1.0)
        assert np.abs(((a * b) * c).c - (a * (b * c)).c).max() <= 1e-12 * scale
        assert np.abs((a * (b + c)).c - (a * b + a * c).c).max() <= 1e-12 * scale
        assert np.abs((a * b).c - (b * a).c).max() <= 1e-12 * scale

    @given(st.integers(0, 10**6))
    @settings(max_examples=40, deadline=None)
    def test_division_inverts_multiplication(self, seed):
        rng = np.random.default_rng(seed)
        a = random_jet(rng)
        b = random_jet(rng, offset=3.0)  # keep the constant term away from zero
        recovered = (a * b) / b
        assert np.abs(recovered.c - a.c).max() <= 1e-12 * max(1.0, np.abs(a.c).max())

    def test_division_by_zero_constant_term(self):
        rng = np.random.default_rng(3)
        a = random_jet(rng)
        b = random_jet(rng)
        b.c[0] = 0.0
        with pytest.raises(DomainError):
            a / b

    def test_jet_is_order_and_coefficients(self):
        assert Jet.__slots__ == ("order", "c")
        a = jet_of("x1", (0, 0, 0, 0))
        b = jet_of("x1", (1, 0, 0, 0))
        assert np.array_equal((a + b).c, a.c + b.c)  # no base-point bookkeeping

    def test_mixed_order_arith_truncates_to_lower_order(self):
        rng = np.random.default_rng(4)
        a = random_jet(rng)
        b = a.truncate(3)
        assert (a + b).order == 3
        assert np.array_equal((a + b).c, 2.0 * b.c)


class TestOrderContract:
    def test_truncation_consistency(self):
        e = parse_expr("exp(x1)*cos(x3) + x2/(1.5 + x4^2)")
        p = (0.3, -0.2, 0.7, 0.4)
        for k in range(1, 5):
            full = expr_jet(e, p, k)
            lower = expr_jet(e, p, k - 1)
            assert np.array_equal(full.truncate(k - 1).c, lower.c)

    @pytest.mark.parametrize(
        ("function", "value"),
        [(f, 0.3) for f in (jets.sqrt, jets.log, jets.exp, jets.sin, jets.cos, jets.sinh, jets.cosh, jets.atan)]
        + [(jets.sqrt, 1e-100), (jets.log, 1e-100), (jets.exp, 710.0), (jets.sinh, 711.0), (jets.cosh, 711.0), (jets.atan, 1e200)],
    )
    def test_a_composition_truncates_to_the_lower_order_jet(self, function, value):
        # at the extreme values the degree-4 series coefficient overflows
        # (or is NaN, for atan), which must reach no lower degree
        c = np.random.default_rng(7).uniform(-1.0, 1.0, jets.NCOEF[4])
        c[0] = value
        with np.errstate(all="ignore"):
            full = function(Jet(4, c))
            for k in range(4):
                assert full.truncate(k).c.tobytes() == function(Jet(4, c).truncate(k)).c.tobytes(), k

    def test_partial_consumes_one_order(self):
        j = jet_of("x1^3", (2, 0, 0, 0))
        d = j.partial(0)
        assert d.order == 3
        assert d.value == pytest.approx(12.0)

    def test_partial_exhausts(self):
        j = Jet.constant(1.0, 0)
        with pytest.raises(JetOrderError):
            j.partial(0)

    def test_derivative_conversion_factor(self):
        j = jet_of("x1^4", (1, 0, 0, 0))
        # coeff stores derivative / alpha!: d^4 x1^4 = 24, divided by 4! = 24
        assert coeff(j, (4, 0, 0, 0)) == pytest.approx(1.0)


EXPRESSION_OPS = ("add", "sub", "mul", "sin", "cos", "atan", "tanh", "exps", "sqrts", "logs", "divs", "pow2", "pow3")


def random_expression(rng, depth: int) -> str:
    """Random expression text, defined everywhere (no domain errors)."""
    if depth == 0 or rng.random() < 0.25:
        if rng.random() < 0.6:
            return f"x{rng.integers(1, 5)}"
        return f"{rng.uniform(-2, 2):.4f}"
    op = EXPRESSION_OPS[rng.integers(0, len(EXPRESSION_OPS))]
    a = random_expression(rng, depth - 1)
    b = random_expression(rng, depth - 1)
    match op:
        case "add":
            return f"({a} + {b})"
        case "sub":
            return f"({a} - {b})"
        case "mul":
            return f"({a})*({b})"
        case "sin":
            return f"sin({a})"
        case "cos":
            return f"cos({a})"
        case "atan":
            return f"atan({a})"
        case "tanh":
            return f"tanh({a})"
        case "exps":
            return f"exp(0.3*tanh({a}))"
        case "sqrts":
            return f"sqrt(1.5 + ({a})^2)"
        case "logs":
            return f"log(1.5 + ({a})^2)"
        case "divs":
            return f"({a})/(1.5 + ({b})^2)"
        case "pow2":
            return f"({a})^2"
        case "pow3":
            return f"({a})^3"
    raise AssertionError(op)


class TestRandomExpressionsVsFiniteDifferences:
    """Order-2 coefficients of 1000 random expressions match second-order
    central differences at step 1e-4."""

    def test_thousand_random_expressions(self):
        rng = np.random.default_rng(20240817)
        failures = []
        for k in range(1000):
            src = random_expression(rng, depth=int(rng.integers(2, 7)))
            e = parse_expr(src)
            p = tuple(rng.uniform(-1, 1, 4))
            j = expr_jet(e, p, 2)
            fd = fd_taylor_coefficients(
                lambda q: eval_float(e, q), p, 2, h_by_order={0: 1.0, 1: 1e-4, 2: 1e-4}, stencils=STENCILS_ACC2
            )
            scale = max(1.0, np.abs(fd).max())
            err = np.abs(j.c - fd).max() / scale
            if err > 1e-5:
                failures.append((src, err))
        assert not failures, f"{len(failures)} of 1000 disagree, worst: {failures[:3]}"


def loop_contract(a: Jet, b: Jet, axes_a, axes_b) -> np.ndarray:
    """Reference contraction: a loop of scalar Jet products and sums."""
    free_a = [ax for ax in range(len(a.shape)) if ax not in axes_a]
    free_b = [ax for ax in range(len(b.shape)) if ax not in axes_b]
    summed = [a.shape[ax] for ax in axes_a]
    order = min(a.order, b.order)

    def place(free_axes, free_idx, summed_axes, summed_idx, ndim):
        idx = [0] * ndim
        for ax, i in zip(free_axes, free_idx):
            idx[ax] = i
        for ax, i in zip(summed_axes, summed_idx):
            idx[ax] = i
        return tuple(idx)

    out_shape = tuple(a.shape[ax] for ax in free_a) + tuple(b.shape[ax] for ax in free_b)
    out = np.zeros(out_shape + (jets.NCOEF[order],))
    for ia in np.ndindex(*(a.shape[ax] for ax in free_a)):
        for ib in np.ndindex(*(b.shape[ax] for ax in free_b)):
            acc = Jet.constant(0.0, order)
            for ip in np.ndindex(*summed):
                acc = acc + a[place(free_a, ia, axes_a, ip, len(a.shape))] * b[place(free_b, ib, axes_b, ip, len(b.shape))]
            out[ia + ib] = acc.c
    return out


def random_tensor_jet(rng, shape, order: int) -> Jet:
    return Jet(order, rng.uniform(-1.0, 1.0, tuple(shape) + (jets.NCOEF[order],)))


def assert_kernel_matches(got: Jet, expect: np.ndarray, order: int):
    assert got.order == order
    assert got.c.shape == expect.shape
    assert np.abs(got.c - expect).max() <= 1e-13 * max(1.0, np.abs(expect).max())


class TestContractionKernel:
    """contract and outer, on batches of one point, against a loop of scalar
    Jet.__mul__ products."""

    @pytest.mark.parametrize("order", range(5))
    def test_one_contracted_axis(self, order):
        rng = np.random.default_rng(10 + order)
        a = random_tensor_jet(rng, (3, 4, 2), order)
        b = random_tensor_jet(rng, (2, 5), order)
        assert_kernel_matches(jets.contract(a[None], b[None], 2, 0)[0], loop_contract(a, b, (2,), (0,)), order)

    @pytest.mark.parametrize("order", range(5))
    def test_two_moved_contracted_axes(self, order):
        rng = np.random.default_rng(20 + order)
        a = random_tensor_jet(rng, (3, 2, 4), order)
        b = random_tensor_jet(rng, (4, 5, 3), order)
        # a's last and first axes pair with b's first and last: neither side is contiguous or in order
        assert_kernel_matches(jets.contract(a[None], b[None], (2, 0), (0, 2))[0], loop_contract(a, b, (2, 0), (0, 2)), order)

    @pytest.mark.parametrize("order", range(5))
    def test_non_contiguous_input(self, order):
        rng = np.random.default_rng(30 + order)
        a = jets.moveaxis(random_tensor_jet(rng, (1, 4, 3, 2), order), 0, 2)  # a strided view, shape (1, 3, 2, 4)
        b = random_tensor_jet(rng, (3, 4), order)
        assert not a.c.flags.c_contiguous
        assert_kernel_matches(jets.contract(a, b[None], (2, 0), (1, 0))[0], loop_contract(a[0], b, (2, 0), (1, 0)), order)

    @pytest.mark.parametrize("order", range(5))
    def test_empty_output_shape(self, order):
        rng = np.random.default_rng(40 + order)
        a = random_tensor_jet(rng, (4, 3), order)
        b = random_tensor_jet(rng, (3, 4), order)
        got = jets.contract(a[None], b[None], (0, 1), (1, 0))[0]
        assert got.shape == ()
        assert_kernel_matches(got, loop_contract(a, b, (0, 1), (1, 0)), order)

    @pytest.mark.parametrize(("order_a", "order_b"), [(4, 2), (1, 3), (0, 4)])
    def test_mixed_orders_truncate_to_lower(self, order_a, order_b):
        rng = np.random.default_rng(50 + order_a)
        a = random_tensor_jet(rng, (2, 4), order_a)
        b = random_tensor_jet(rng, (4, 3), order_b)
        order = min(order_a, order_b)
        assert_kernel_matches(jets.contract(a[None], b[None], 1, 0)[0], loop_contract(a, b, (1,), (0,)), order)
        assert_kernel_matches(jets.outer(a[None], b[None])[0], loop_contract(a, b, (), ()), order)

    @pytest.mark.parametrize("order", range(5))
    @pytest.mark.parametrize(("shape_a", "shape_b"), [((2, 3), (4,)), ((), (3, 2)), ((), ())])
    def test_outer(self, order, shape_a, shape_b):
        rng = np.random.default_rng(60 + order)
        a = random_tensor_jet(rng, shape_a, order)
        b = random_tensor_jet(rng, shape_b, order)
        assert_kernel_matches(jets.outer(a[None], b[None])[0], loop_contract(a, b, (), ()), order)

    @pytest.mark.parametrize("chunk_bytes", [1, 5000, 10**9])
    @pytest.mark.parametrize("order", [2, 4])
    def test_a_batch_contracted_in_slices_of_points(self, order, chunk_bytes, monkeypatch):
        # slices of one point, of a few points, and the whole batch at once give the one-point bits
        rng = np.random.default_rng(70 + order)
        a = random_tensor_jet(rng, (7, 4, 3), order)
        b = random_tensor_jet(rng, (7, 3, 4, 2), order)
        monkeypatch.setattr(jets, "CONTRACT_CHUNK_BYTES", 10**9)
        whole = jets.contract(a, b, 1, 0)
        monkeypatch.setattr(jets, "CONTRACT_CHUNK_BYTES", chunk_bytes)
        got = jets.contract(a, b, 1, 0)
        assert got.c.shape == (7, 4, 4, 2, jets.NCOEF[order])
        assert np.array_equal(got.c, whole.c)
        for k in range(7):
            assert np.array_equal(got.c[k], jets.contract(a[k : k + 1], b[k : k + 1], 1, 0).c[0])


class TestContractionWorkspace:
    """`jets._contract` gathers into views of one arena; no result aliases it."""

    #: (shape of a, shape of b, axes of a, axes of b, order) after a point axis;
    #: the last needs about 4.6 MB per point, so it grows the arena.
    CASES = [((4, 3), (3, 4, 2), 1, 0, 4), ((4, 4), (4, 4), 1, 0, 2), ((4,), (4, 4, 4), 0, 1, 3), ((4, 4, 4, 4), (4, 4, 4, 4), (2, 3), (0, 1), 4)]

    def _contract_cases(self, rng, points_counts, cases=CASES):
        for n in points_counts:
            for shape_a, shape_b, axes_a, axes_b, order in cases:
                a = random_tensor_jet(rng, (n,) + shape_a, order)
                b = random_tensor_jet(rng, (n,) + shape_b, order)
                yield jets.contract(a, b, axes_a, axes_b)

    def test_a_returned_jet_keeps_its_bits_after_later_contracts(self, monkeypatch):
        monkeypatch.setattr(jets, "_PLANS", {})
        monkeypatch.setattr(jets, "_ARENA", np.empty(0))
        rng = np.random.default_rng(80)
        first = list(self._contract_cases(rng, [3], self.CASES[:-1]))
        saved = [jet.c.copy() for jet in first]
        arena = jets._ARENA
        later = list(self._contract_cases(rng, [1, 5, 2, 3]))
        assert jets._ARENA is not arena  # the last case grew the arena
        for jet in first + later:
            assert not np.shares_memory(jet.c, jets._ARENA) and not np.shares_memory(jet.c, arena)
        assert all(np.array_equal(jet.c, c) for jet, c in zip(first, saved))

    @pytest.mark.parametrize("chunk_bytes", [5000, 1 << 20])
    def test_the_arena_never_grows_past_the_largest_gathered_size(self, chunk_bytes, monkeypatch):
        monkeypatch.setattr(jets, "_PLANS", {})
        monkeypatch.setattr(jets, "_ARENA", np.empty(0))
        monkeypatch.setattr(jets, "CONTRACT_CHUNK_BYTES", chunk_bytes)
        list(self._contract_cases(np.random.default_rng(81), [1, 6, 2, 9]))
        # every cached view block (fa, gathered a, gathered b) cuts the current arena
        blocks = [sum(v.size for v in view[:3]) for plan in jets._PLANS.values() for view in plan[-2].values()]
        assert jets._ARENA.size == max(blocks)
        assert all(np.shares_memory(view[0], jets._ARENA) for plan in jets._PLANS.values() for view in plan[-2].values())
        # a point axis is gathered a slice of points at a time: the largest block is one point's,
        # or fits the chunk bound
        largest_point = max(plan[-1] for plan in jets._PLANS.values())
        assert jets._ARENA.nbytes <= 2 * max(largest_point, chunk_bytes)


def old_contract(a: Jet, b: Jet, axes_a, axes_b) -> Jet:
    """`contract` as it was before plans were cached: every shape, permutation
    and reshape target derived on each call."""
    if isinstance(axes_a, int):
        axes_a = (axes_a,)
        axes_b = (axes_b,)
    o = min(a.order, b.order)
    n = jets.NCOEF[o]
    last_a, last_b = a.c.ndim - 1, b.c.ndim - 1
    free_a = tuple(ax for ax in range(last_a) if ax not in axes_a)
    free_b = tuple(ax for ax in range(last_b) if ax not in axes_b)
    summed = tuple(a.c.shape[ax] for ax in axes_a)
    sa = tuple(a.c.shape[ax] for ax in free_a)
    sb = tuple(b.c.shape[ax] for ax in free_b)
    p, na, nb = math.prod(summed), math.prod(sa), math.prod(sb)
    ia, ib, width = jets._CONTRACT[o]
    fa = np.empty((n + 1, p, na))
    fa[n] = 0.0
    fa[:n].reshape((n,) + summed + sa)[...] = a.c[..., :n].transpose((last_a, *axes_a, *free_a))
    fb = np.ascontiguousarray(b.c[..., :n].transpose((last_b, *axes_b, *free_b))).reshape(n, p, nb)
    ga = fa.take(ia, axis=0).reshape(n, width * p, na)
    gb = fb.take(ib, axis=0).reshape(n, width * p, nb)
    out = np.matmul(ga.transpose(0, 2, 1), gb).transpose(1, 2, 0)
    return Jet(o, out.reshape(sa + sb + (n,)))


class TestCachedKernelsMatchTheirOracles:
    """The cached `contract` plan and `moveaxis` permutation change no bit."""

    @pytest.mark.parametrize("order", range(5))
    def test_plan_filled_by_a_contiguous_operand_serves_a_strided_one(self, order):
        rng = np.random.default_rng(70 + order)
        strided = jets.moveaxis(random_tensor_jet(rng, (1, 4, 3, 2), order), 0, 2)  # shape (1, 3, 2, 4)
        contiguous = Jet(order, np.ascontiguousarray(strided.c))
        b = random_tensor_jet(rng, (1, 3, 4), order)
        assert not strided.c.flags.c_contiguous and contiguous.c.flags.c_contiguous
        first = jets.contract(contiguous, b, (2, 0), (1, 0))
        assert (strided.c.shape[1:], b.c.shape[1:], (2, 0), (1, 0)) in jets._PLANS
        got = jets.contract(strided, b, (2, 0), (1, 0))
        assert np.array_equal(got.c[0], old_contract(strided[0], b[0], (2, 0), (1, 0)).c)
        assert np.array_equal(got.c, first.c)

    @pytest.mark.parametrize(
        ("shape_a", "shape_b", "axes_a", "axes_b"),
        [((4, 4), (4, 4), 1, 0), ((4, 4, 4), (4,), 0, 0), ((4, 4, 4, 4), (4, 4), (2, 3), (0, 1)), ((2, 3), (4,), (), ())],
    )
    @pytest.mark.parametrize("orders", [(4, 4), (2, 4), (4, 0), (3, 1)])
    def test_contract_matches_the_uncached_kernel(self, shape_a, shape_b, axes_a, axes_b, orders):
        rng = np.random.default_rng(80)
        a = random_tensor_jet(rng, shape_a, orders[0])
        b = random_tensor_jet(rng, shape_b, orders[1])
        for _ in range(2):  # the second call reads the cached plan
            assert np.array_equal(jets.contract(a[None], b[None], axes_a, axes_b).c[0], old_contract(a, b, axes_a, axes_b).c)

    @pytest.mark.parametrize("ndim", range(2, 7))
    def test_moveaxis_matches_numpy_for_every_axis_choice(self, ndim, monkeypatch):
        monkeypatch.setattr(jets, "_PERMS", {})  # thousands of keys; keep them out of the shared cache
        j = Jet(0, np.arange(math.prod(range(2, ndim + 2)), dtype=float).reshape(tuple(range(2, ndim + 2)) + (1,)))
        pairs = [(s, d) for s in [*range(ndim), *range(-ndim - 1, -1)] for d in range(ndim)]
        for k in range(1, ndim + 1):
            pairs += [(src, dst) for src in itertools.combinations(range(ndim), k) for dst in itertools.permutations(range(ndim), k)]
        for src, dst in pairs:
            got = jets.moveaxis(j[None], src, dst)[0]
            assert np.array_equal(got.c, np.moveaxis(j.c, src, dst)), (src, dst)
            assert got.c.shape == np.moveaxis(j.c, src, dst).shape


def signed_values(rng, shape) -> np.ndarray:
    """Uniform values in [-1, 1) over many magnitudes, a quarter of them +0.0 or -0.0."""
    n = math.prod(shape)
    x = rng.uniform(-1.0, 1.0, n) * 10.0 ** rng.integers(-8, 9, n)
    zero = rng.random(n) < 0.25
    x[zero] = np.copysign(0.0, rng.uniform(-1.0, 1.0, n))[zero]
    return x.reshape(shape)


class TestOrderZeroPaths:
    """The order-0 paths of the kernels give the bits of their general paths,
    signs of zero included (compared as bytes)."""

    @pytest.mark.parametrize("n_points", [1, 5])
    @pytest.mark.parametrize(
        ("shape_a", "shape_b", "axes_a", "axes_b"),
        [((4, 4), (4,), (), ()), ((2, 3), (), (), ()), ((4, 4), (4,), 1, 0), ((4,), (4, 4), 0, 1), ((4, 4, 4, 4), (4, 4), (2, 3), (0, 1)), ((4, 3), (3, 4), (0, 1), (1, 0))],
    )
    @pytest.mark.parametrize("orders", [(0, 0), (2, 0), (0, 4)])
    def test_contract_equals_the_gather_path_of_the_same_plan(self, shape_a, shape_b, axes_a, axes_b, orders, n_points):
        rng = np.random.default_rng(90)
        a = Jet(orders[0], signed_values(rng, (n_points,) + shape_a + (jets.NCOEF[orders[0]],)))
        b = Jet(orders[1], signed_values(rng, (n_points,) + shape_b + (jets.NCOEF[orders[1]],)))
        got = jets.contract(a, b, axes_a, axes_b)
        axes = (axes_a,) if isinstance(axes_a, int) else axes_a, (axes_b,) if isinstance(axes_b, int) else axes_b
        plan = jets._PLANS[(a.c.shape[1:], b.c.shape[1:], *axes)]
        assert got.order == plan[0] == 0
        assert got.c.tobytes() == jets._contract(a.c, b.c, plan).tobytes()

    @pytest.mark.parametrize(("shape_a", "shape_b"), [((), ()), ((3, 1, 4), (5, 1)), ((6, 4, 4), (6, 4, 4))])
    def test_mul_equals_the_table_path(self, shape_a, shape_b):
        rng = np.random.default_rng(91)
        ca, cb = signed_values(rng, shape_a + (1,)), signed_values(rng, shape_b + (1,))
        ca.flat[:2] = np.inf, -np.inf
        ia, ib, starts = jets._MUL[0]
        with np.errstate(invalid="ignore"):  # inf times zero
            table = np.add.reduceat(ca[..., ia] * cb[..., ib], starts, axis=-1)
            assert jets._mul_raw(ca, cb, 0).tobytes() == table.tobytes()
            assert (Jet(0, ca) * Jet(0, cb)).c.tobytes() == table.tobytes()

    @pytest.mark.parametrize("function", [jets.reciprocal, jets.sqrt, jets.log, jets.exp, jets.sin, jets.cos, jets.sinh, jets.cosh, jets.atan])
    @pytest.mark.parametrize("shape", [(), (7,), (3, 4, 4)])
    def test_elementary_functions_equal_the_value_of_the_general_path(self, function, shape):
        # the value of an order-1 jet goes through the series and the composition
        rng = np.random.default_rng(92)
        c = rng.uniform(-1.0, 1.0, shape + (jets.NCOEF[1],))
        c[..., 0] = np.abs(signed_values(rng, shape)) + 1e-3
        if function in (jets.reciprocal, jets.sin, jets.atan):
            c[..., 0] *= np.where(rng.random(shape) < 0.5, -1.0, 1.0)
        with np.errstate(over="ignore"):  # exp, sinh and cosh of up to 1e8
            got, general = function(Jet(1, c).truncate(0)), function(Jet(1, c))
        assert got.order == 0 and got.c.shape == shape + (1,)
        assert got.c.tobytes() == np.ascontiguousarray(general.c[..., :1]).tobytes()

    @pytest.mark.parametrize(("function", "value"), [(jets.reciprocal, 0.0), (jets.reciprocal, -0.0), (jets.sqrt, 0.0), (jets.sqrt, -2.0), (jets.log, -0.0)])
    def test_the_domain_checks_hold_at_order_0(self, function, value):
        with pytest.raises(DomainError):
            function(Jet(0, np.array([[1.0], [value]])))


class TestSharedProgram:
    """One program shared by several expressions, and kept across evaluations, changes no bit."""

    @staticmethod
    def related_expressions(rng) -> list:
        """Six expressions that share subtrees, as the entries of a chart do."""
        a, b, c = (random_expression(rng, depth=int(rng.integers(1, 4))) for _ in range(3))
        srcs = [a, b, c, f"({a})*({b})", f"({b})/(1.5 + ({c})^2)", f"sin({a}) - ({c})/(1.5 + ({c})^2)"]
        return [parse_expr(src) for src in srcs]

    @given(st.integers(0, 10**6), st.integers(0, 4))
    @settings(max_examples=40, deadline=None)
    def test_shared_program_gives_the_fresh_bits(self, seed, order):
        rng = np.random.default_rng(seed)
        exprs = self.related_expressions(rng)
        p = [tuple(rng.uniform(-1, 1, 4))]
        [shared] = eval_jet([Program(exprs)], [p], order)
        for e, c in zip(exprs, shared.swapaxes(0, 1)):
            assert np.array_equal(c, expr_jet(e, p, order).c)

    @given(st.integers(0, 10**6), st.integers(0, 4), st.integers(0, 4))
    @settings(max_examples=40, deadline=None)
    def test_program_reused_at_another_point_or_order(self, seed, order_p, order_q):
        rng = np.random.default_rng(seed)
        exprs = self.related_expressions(rng)
        p, q = [tuple(rng.uniform(-1, 1, 4))], [tuple(rng.uniform(-1, 1, 4))]
        program = Program(exprs)
        eval_jet([program], [p], order_p)
        [at_q] = eval_jet([program], [q], order_q)
        for e, c in zip(exprs, at_q.swapaxes(0, 1)):
            assert np.array_equal(c, expr_jet(e, q, order_q).c)
