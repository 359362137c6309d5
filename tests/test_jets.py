"""Truncated Taylor arithmetic: frozen series, ring axioms, derivative tables."""

from __future__ import annotations

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from ak4 import jets
from ak4.errors import DomainError, JetOrderError
from ak4.exprs import eval_float, eval_jet, parse_expr
from ak4.jets import Jet, jet_arith

from oracles import STENCILS_ACC2, fd_taylor_coefficients


def jet_of(src: str, p, order: int = 4) -> Jet:
    return eval_jet(parse_expr(src), p, order)


def random_jet(rng, order: int = 4, offset: float = 0.0) -> Jet:
    c = rng.uniform(-1.0, 1.0, jets.NCOEF[order])
    c[0] += offset
    return Jet(order, c)


class TestKnownSeries:
    def test_sine_series_along_x2(self):
        j = jet_of("sin(x2)", (0, 0, 0, 0), order=3)
        assert j.coeff((0, 0, 0, 0)) == 0.0
        assert j.coeff((0, 1, 0, 0)) == 1.0
        assert j.coeff((0, 2, 0, 0)) == 0.0
        assert j.coeff((0, 3, 0, 0)) == pytest.approx(-1.0 / 6.0, abs=1e-15)

    def test_bilinear(self):
        j = jet_of("x1*x2", (1, 2, 0, 0), order=1)
        assert j.value == 2.0
        assert j.coeff((1, 0, 0, 0)) == 2.0
        assert j.coeff((0, 1, 0, 0)) == 1.0

    def test_exp_cos_order4_vs_finite_differences(self):
        e = parse_expr("exp(x1)*cos(x3)")
        p = (0.3, 0.0, 0.7, 0.0)
        j = eval_jet(e, p, 4)
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
        j = eval_jet(e, p, 4)
        fd = fd_taylor_coefficients(lambda q: eval_float(e, q), p, 4)
        assert np.abs(j.c - fd).max() <= 2e-6 * max(1.0, np.abs(fd).max())


class TestRingStructure:
    def test_additive_identity(self):
        rng = np.random.default_rng(0)
        a = random_jet(rng)
        z = Jet.constant(0.0, 4)
        assert np.array_equal(jet_arith(a, z, "+").c, a.c)

    def test_multiplicative_identity(self):
        rng = np.random.default_rng(1)
        a = random_jet(rng)
        one = Jet.constant(1.0, 4)
        assert np.abs(jet_arith(a, one, "*").c - a.c).max() == 0.0

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

    def test_mixed_order_arith_rejected_by_public_op(self):
        a = Jet.constant(1.0, 4)
        b = Jet.constant(1.0, 3)
        with pytest.raises(JetOrderError):
            jet_arith(a, b, "+")

    def test_mismatched_base_points_rejected(self):
        a = jet_of("x1", (0, 0, 0, 0))
        b = jet_of("x1", (1, 0, 0, 0))
        with pytest.raises(ValueError):
            a + b


class TestOrderContract:
    def test_truncation_consistency(self):
        e = parse_expr("exp(x1)*cos(x3) + x2/(1.5 + x4^2)")
        p = (0.3, -0.2, 0.7, 0.4)
        for k in range(1, 5):
            full = eval_jet(e, p, k)
            lower = eval_jet(e, p, k - 1)
            assert np.array_equal(full.truncate(k - 1).c, lower.c)

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
        # coeff stores derivative / alpha!
        assert j.coeff((4, 0, 0, 0)) == pytest.approx(1.0)
        assert j.derivative((4, 0, 0, 0)) == pytest.approx(24.0)


class TestRandomExpressionsVsFiniteDifferences:
    """Order-2 coefficients of 1000 random expressions match second-order
    central differences at step 1e-4."""

    OPS = ("add", "sub", "mul", "sin", "cos", "atan", "tanh", "exps", "sqrts", "logs", "divs", "pow2", "pow3")

    def build(self, rng, depth: int) -> str:
        if depth == 0 or rng.random() < 0.25:
            if rng.random() < 0.6:
                return f"x{rng.integers(1, 5)}"
            return f"{rng.uniform(-2, 2):.4f}"
        op = self.OPS[rng.integers(0, len(self.OPS))]
        a = self.build(rng, depth - 1)
        b = self.build(rng, depth - 1)
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

    def test_thousand_random_expressions(self):
        rng = np.random.default_rng(20240817)
        failures = []
        for k in range(1000):
            src = self.build(rng, depth=int(rng.integers(2, 7)))
            e = parse_expr(src)
            p = tuple(rng.uniform(-1, 1, 4))
            j = eval_jet(e, p, 2)
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
    """contract and outer against a loop of scalar Jet.__mul__ products."""

    @pytest.mark.parametrize("order", range(5))
    def test_one_contracted_axis(self, order):
        rng = np.random.default_rng(10 + order)
        a = random_tensor_jet(rng, (3, 4, 2), order)
        b = random_tensor_jet(rng, (2, 5), order)
        assert_kernel_matches(jets.contract(a, b, 2, 0), loop_contract(a, b, (2,), (0,)), order)

    @pytest.mark.parametrize("order", range(5))
    def test_two_moved_contracted_axes(self, order):
        rng = np.random.default_rng(20 + order)
        a = random_tensor_jet(rng, (3, 2, 4), order)
        b = random_tensor_jet(rng, (4, 5, 3), order)
        # a's last and first axes pair with b's first and last: neither side is contiguous or in order
        assert_kernel_matches(jets.contract(a, b, (2, 0), (0, 2)), loop_contract(a, b, (2, 0), (0, 2)), order)

    @pytest.mark.parametrize("order", range(5))
    def test_non_contiguous_input(self, order):
        rng = np.random.default_rng(30 + order)
        a = jets.moveaxis(random_tensor_jet(rng, (4, 3, 2), order), 0, 2)  # a strided view, shape (3, 2, 4)
        b = random_tensor_jet(rng, (3, 4), order)
        assert not a.c.flags.c_contiguous
        assert_kernel_matches(jets.contract(a, b, (2, 0), (1, 0)), loop_contract(a, b, (2, 0), (1, 0)), order)

    @pytest.mark.parametrize("order", range(5))
    def test_empty_output_shape(self, order):
        rng = np.random.default_rng(40 + order)
        a = random_tensor_jet(rng, (4, 3), order)
        b = random_tensor_jet(rng, (3, 4), order)
        got = jets.contract(a, b, (0, 1), (1, 0))
        assert got.shape == ()
        assert_kernel_matches(got, loop_contract(a, b, (0, 1), (1, 0)), order)

    @pytest.mark.parametrize(("order_a", "order_b"), [(4, 2), (1, 3), (0, 4)])
    def test_mixed_orders_truncate_to_lower(self, order_a, order_b):
        rng = np.random.default_rng(50 + order_a)
        a = random_tensor_jet(rng, (2, 4), order_a)
        b = random_tensor_jet(rng, (4, 3), order_b)
        order = min(order_a, order_b)
        assert_kernel_matches(jets.contract(a, b, 1, 0), loop_contract(a, b, (1,), (0,)), order)
        assert_kernel_matches(jets.outer(a, b), loop_contract(a, b, (), ()), order)

    @pytest.mark.parametrize("order", range(5))
    @pytest.mark.parametrize(("shape_a", "shape_b"), [((2, 3), (4,)), ((), (3, 2)), ((), ())])
    def test_outer(self, order, shape_a, shape_b):
        rng = np.random.default_rng(60 + order)
        a = random_tensor_jet(rng, shape_a, order)
        b = random_tensor_jet(rng, shape_b, order)
        assert_kernel_matches(jets.outer(a, b), loop_contract(a, b, (), ()), order)
