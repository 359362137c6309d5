"""Parser grammar, precedence, and error reporting."""

from __future__ import annotations

import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from ak4 import charts, jets
from ak4.errors import DomainError, ParseError
from ak4.exprs import (
    FUNCTIONS,
    MAX_DEPTH,
    BinOp,
    Call,
    Coord,
    Neg,
    Num,
    Pow,
    Program,
    _depth,
    eval_float,
    eval_jet,
    parse_expr,
)

from conftest import expr_jet


class TestGrammar:
    def test_example_ast(self):
        node = parse_expr("x1^2 + sin(x2)")
        assert node == BinOp("+", Pow(Coord(0), 2.0), Call("sin", Coord(1)))

    def test_constant_times_pi(self):
        node = parse_expr("2*pi")
        assert node == BinOp("*", Num(2.0), Num(math.pi))
        assert eval_float(node, (0, 0, 0, 0)) == pytest.approx(2 * math.pi)

    def test_precedence_pow_over_unary_minus(self):
        # -x1^2 parses as -(x1^2)
        assert eval_float(parse_expr("-x1^2"), (3, 0, 0, 0)) == -9.0

    def test_precedence_mul_over_add(self):
        assert eval_float(parse_expr("1 + 2*3"), (0, 0, 0, 0)) == 7.0

    def test_left_associative_subtraction(self):
        assert eval_float(parse_expr("10 - 4 - 3"), (0, 0, 0, 0)) == 3.0

    def test_left_associative_division(self):
        assert eval_float(parse_expr("8 / 4 / 2"), (0, 0, 0, 0)) == 1.0

    def test_pow_right_associative_constant_tower(self):
        assert eval_float(parse_expr("x1^2^3"), (2, 0, 0, 0)) == 2.0**8

    def test_negative_exponent(self):
        assert eval_float(parse_expr("x1^-2"), (2, 0, 0, 0)) == 0.25

    def test_whitespace_insignificant(self):
        a = parse_expr("x1 * ( x2 +   x3 )")
        b = parse_expr("x1*(x2+x3)")
        assert a == b

    def test_scientific_notation(self):
        assert eval_float(parse_expr("1.5e2 + 2E-1"), (0, 0, 0, 0)) == pytest.approx(150.2)

    def test_unary_minus_nesting(self):
        assert eval_float(parse_expr("--x1"), (5, 0, 0, 0)) == 5.0
        assert parse_expr("-x1") == Neg(Coord(0))


class TestErrors:
    def test_unknown_identifier(self):
        with pytest.raises(ParseError, match="unknown identifier 'x5'") as err:
            parse_expr("x5 + 1")
        assert err.value.offset == 0

    def test_truncated_input_reports_offset(self):
        with pytest.raises(ParseError) as err:
            parse_expr("x1 +")
        assert err.value.offset == 4

    def test_arity_mismatch(self):
        with pytest.raises(ParseError, match="exactly one argument"):
            parse_expr("sin(x1, x2)")

    def test_unknown_function(self):
        with pytest.raises(ParseError, match="unknown identifier"):
            parse_expr("frob(x1)")

    def test_non_constant_exponent(self):
        with pytest.raises(ParseError, match="exponent must be a numeric constant"):
            parse_expr("x1^x2")

    def test_empty_expression(self):
        with pytest.raises(ParseError):
            parse_expr("   ")

    def test_trailing_garbage(self):
        with pytest.raises(ParseError, match="trailing"):
            parse_expr("x1 x2")

    def test_unbalanced_paren(self):
        with pytest.raises(ParseError):
            parse_expr("(x1 + x2")

    @pytest.mark.parametrize(
        ("src", "offset", "match"),
        [
            ("2 + x1^1e400", 7, "not finite: inf"),
            ("x1^(0*1e400)", 3, "not finite: nan"),
            ("2^(10^400)", 2, "overflows"),
            ("x1^(1/0)", 3, "division by zero"),
            ("x1^sin(1e400)", 3, "cannot be evaluated"),
        ],
    )
    def test_constant_exponent_that_is_not_a_finite_number(self, src, offset, match):
        with pytest.raises(ParseError, match=match) as err:
            parse_expr(src)
        assert err.value.offset == offset


class TestEvaluation:
    def test_jet_and_float_agree(self):
        src = "exp(x1/2)*sin(x2) - x3/(2 + x4^2) + pi"
        e = parse_expr(src)
        p = (0.3, -0.7, 1.2, 0.4)
        assert expr_jet(e, p, 3).value == pytest.approx(eval_float(e, p), abs=1e-14)

    def test_log_domain_error(self):
        e = parse_expr("log(x1)")
        with pytest.raises(DomainError):
            expr_jet(e, (-1.0, 0, 0, 0), 2)
        with pytest.raises(DomainError):
            eval_float(e, (-1.0, 0, 0, 0))

    @pytest.mark.parametrize("fn", ["sin", "cos", "tan"])
    def test_trig_of_an_infinite_value_is_a_domain_error(self, fn):
        # x4^-1 * x4^-1 overflows to inf at a tiny x4, where math.sin raises ValueError
        with pytest.raises(DomainError, match=f"{fn} of an infinite value"):
            eval_float(parse_expr(f"{fn}(x4^-1 * x4^-1)"), (0.0, 0.0, 0.0, 5e-298))

    def test_sqrt_domain_error(self):
        with pytest.raises(DomainError):
            expr_jet(parse_expr("sqrt(x1)"), (-0.5, 0, 0, 0), 2)

    def test_order_out_of_range(self):
        from ak4.errors import JetOrderError

        with pytest.raises(JetOrderError):
            expr_jet(parse_expr("x1"), (0, 0, 0, 0), 5)

    def test_non_integer_power_of_negative_base(self):
        with pytest.raises(DomainError):
            expr_jet(parse_expr("x1^0.5"), (-2.0, 0, 0, 0), 2)

    def test_integer_power_of_negative_base_ok(self):
        assert expr_jet(parse_expr("x1^3"), (-2.0, 0, 0, 0), 2).value == -8.0

    @pytest.mark.parametrize("order", [0, 1, 2, 3, 4])
    def test_overflowed_value_stays_inf(self, order):
        # the nilpotent part has a zero constant term, which must not turn f(a0) = inf into nan
        with np.errstate(over="ignore", invalid="ignore"):
            jet = expr_jet(parse_expr("exp(1000)"), (0.1, 0.2, 0.3, 0.4), order)
        assert jet.value == math.inf

    @pytest.mark.parametrize("src", ["1" + "+0.5*sin(x1)" * 253, "-" * 255 + "x1"])
    def test_deepest_accepted_expression_evaluates(self, src):
        e = parse_expr(src)
        assert _depth(e) == MAX_DEPTH
        p = (0.1, 0.2, 0.3, 0.4)
        assert expr_jet(e, p, 4).value == pytest.approx(eval_float(e, p), rel=1e-14)


#: Pieces of the grammar, and of exponents that overflow or leave a domain, so
#: that joined at random they reach deep into the parser.
_TOKENS = ["x1", "x4", "x5", "pi", "e", "1", "0", "2.5", "1e400", "1e308", "10", "400", ".", "E"]
_TOKENS += ["sin", "exp", "log", "sqrt", "tan", "cosh", "(", ")", "^", "*", "/", "+", "-", ",", " "]
#: Well-formed constant expressions, which the parser folds when they are exponents.
_CONSTANTS = st.recursive(
    st.sampled_from(["pi", "e", "0", "1", "-1", "2.5", "10", "400", "1e308", "1e400"]),
    lambda inner: st.one_of(
        st.builds("({}){}({})".format, inner, st.sampled_from("+-*/^"), inner),
        st.builds("{}({})".format, st.sampled_from(FUNCTIONS), inner),
    ),
    max_leaves=4,
)
_TEXT = st.one_of(st.text(max_size=30), st.lists(st.sampled_from(_TOKENS), max_size=20).map("".join), _CONSTANTS.map("x1^({})".format))


@given(_TEXT)
@settings(max_examples=400, deadline=None)
def test_arbitrary_text_raises_only_parse_errors(text):
    try:
        parse_expr(text)
    except ParseError:
        pass


#: Generated expressions over the whole grammar, domain errors included: log,
#: sqrt, division and non-integer powers can leave their domain at some points.
_EXPRESSIONS = st.recursive(
    st.sampled_from(["x1", "x2", "x3", "x4", "pi", "e", "0", "0.5", "1", "2.5"]),
    lambda inner: st.one_of(
        st.builds("({}) {} ({})".format, inner, st.sampled_from("+-*/"), inner),
        st.builds("-({})".format, inner),
        st.builds("({})^{}".format, inner, st.sampled_from(["2", "3", "-1", "0", "0.5", "-1.5"])),
        st.builds("{}({})".format, st.sampled_from(FUNCTIONS), inner),
    ),
    max_leaves=8,
)
_COORDINATE = st.floats(-1.5, 1.5, allow_subnormal=False)
_POINTS = st.lists(st.tuples(_COORDINATE, _COORDINATE, _COORDINATE, _COORDINATE), min_size=1, max_size=4)


def _float_or_none(e, p) -> float | None:
    """eval_float(e, p), or None where it leaves its domain or overflows."""
    try:
        return eval_float(e, p)
    except (DomainError, OverflowError):
        return None


def _magnitude(e, p) -> float:
    """The largest finite |value| of any subexpression of e at p: what a
    rounding difference in one of them can cancel down from."""
    values = [_float_or_none(node, p) for node in _subexpressions(e)]
    return max((abs(v) for v in values if v is not None and math.isfinite(v)), default=0.0)


def _same_bits(a: np.ndarray, b: np.ndarray) -> bool:
    """a and b hold the same bits, except that any NaN matches any NaN: numpy's
    vector and scalar loops may give a NaN of either sign."""
    nan = np.isnan(a)
    return a.shape == b.shape and np.array_equal(nan, np.isnan(b)) and a[~nan].tobytes() == b[~nan].tobytes()


def _subexpressions(e):
    yield e
    for child in (getattr(e, name) for name in ("arg", "left", "right", "base") if hasattr(e, name)):
        yield from _subexpressions(child)


class TestBatchEvaluation:
    """eval_jet on a batch of points is eval_jet at each point alone."""

    @given(_EXPRESSIONS, _POINTS, st.integers(0, 4))
    @settings(max_examples=300, deadline=None)
    def test_batch_equals_the_one_point_jets(self, text, points, order):
        e = parse_expr(text)
        with np.errstate(all="ignore"):
            alone = []
            for p in points:
                try:
                    alone.append(expr_jet(e, p, order))
                except DomainError:
                    alone.append(None)
            try:
                batch = expr_jet(e, np.array(points), order)
            except DomainError:
                batch = None
        # a batch raises exactly when one of its points does alone
        assert (batch is None) == any(jet is None for jet in alone)
        if batch is None:
            return
        assert batch.c.shape == (len(points), jets.NCOEF[order])  # a constant too has its rows
        for p, jet, c in zip(points, alone, batch.c):
            assert _same_bits(c, jet.c), p
            reference = _float_or_none(e, p)
            if reference is not None and math.isfinite(reference) and math.isfinite(jet.value):
                assert abs(jet.value - reference) <= 1e-12 * max(abs(reference), _magnitude(e, p)), p

    @given(st.lists(st.tuples(st.lists(_EXPRESSIONS, min_size=1, max_size=4), _POINTS), min_size=1, max_size=5), st.integers(0, 4))
    @settings(max_examples=100, deadline=None)
    def test_programs_in_one_batch_equal_the_one_point_jets(self, sets, order):
        # expression sets with their own point counts, as the charts of a batch
        programs = [Program([parse_expr(text) for text in texts]) for texts, _ in sets]
        points = [np.array(pts) for _, pts in sets]
        with np.errstate(all="ignore"):
            alone = []
            for (texts, pts), program in zip(sets, programs):
                rows = []
                for text in texts:
                    row = []
                    for p in pts:
                        try:
                            row.append(expr_jet(parse_expr(text), p, order))
                        except DomainError:
                            row.append(None)
                    rows.append(row)
                alone.append(rows)
            try:
                batch = eval_jet(programs, points, order)
            except DomainError:
                batch = None
        # a batch raises exactly when one of its points does alone
        assert (batch is None) == any(jet is None for rows in alone for row in rows for jet in row)
        if batch is None:
            return
        for (texts, pts), coefficients, rows in zip(sets, batch, alone):
            # one array per program, a constant root with its rows too
            assert coefficients.shape == (len(pts), len(texts), jets.NCOEF[order])
            for text, column, row in zip(texts, coefficients.swapaxes(0, 1), rows):
                for c, one in zip(column, row):
                    assert _same_bits(c, one.c), text

    def test_the_cached_plan_is_keyed_by_point_counts(self):
        # the same programs at counts (1, 2), then (2, 1): each plan places
        # every program's rows where its own point count puts them
        programs = [Program([parse_expr(text) for text in texts]) for texts in (("x1*x2", "2", "sin(x3)/x4"), ("exp(x1) + x2", "x3^2"))]
        rng = np.random.default_rng(3)
        for counts in ((1, 2), (2, 1)):
            points = [rng.uniform(0.5, 1.0, (n, 4)) for n in counts]
            batch = eval_jet(programs, points, 3)
            for program, pts, coefficients in zip(programs, points, batch):
                assert coefficients.shape == (len(pts), len(program.roots), jets.NCOEF[3])
                for p, c in zip(pts, coefficients):
                    [one] = eval_jet([program], [p[None]], 3)
                    assert one.tobytes() == c.tobytes()

    def test_a_program_of_constants_fills_every_row(self):
        flat, fubini = charts.catalog_chart("flat"), charts.catalog_chart("fubini-study")
        program = flat.program
        assert not program.groups  # every entry of the flat chart is a constant
        counts = (3, 2)
        points = [spec.sample_points(n, 5) for spec, n in zip((flat, fubini), counts)]
        constant, _ = eval_jet([program, fubini.program], points, 2)
        assert constant.shape == (3, 26, jets.NCOEF[2])
        expected = program.constant_values(2)[[program.constants.index(k) for k in program.roots]]
        for c in constant:
            assert c.tobytes() == expected.tobytes()


class TestProgramInterning:
    """`Program` shares equal subtrees by interning (op, args), never by
    hashing expression nodes."""

    def test_compiling_hashes_no_expression_node(self, monkeypatch):
        roots = [parse_expr(text) for text in ("x1*x2 + x1*x2", "2*pi + sin(x3)^2 - e", "1" + "+0.5*sin(x1)" * 253)]
        roots += [e for spec in charts.catalog() for e in spec.g.values()]
        hashed = []

        def counted(node):
            hashed.append(type(node).__name__)
            return id(node)

        for cls in (Num, Coord, Neg, BinOp, Pow, Call):
            monkeypatch.setattr(cls, "__hash__", counted)
        Program(roots)
        assert hashed == []

    def test_a_constant_and_its_numeric_spelling_are_one_node(self):
        program = Program([parse_expr("pi"), parse_expr("3.141592653589793")])
        assert len(program.ops) == 1 and program.roots == (0, 0)

    def test_a_repeated_subtree_is_one_node(self):
        # x1, x2, x1*x2 and the sum
        assert len(Program([parse_expr("x1*x2 + x1*x2")]).ops) == 4

    @pytest.mark.parametrize("order", [0, 2, 4])
    def test_a_constant_denominator_is_a_kept_reciprocal(self, order):
        # a / c with c constant is a * reciprocal(c), the reciprocal a constant
        # node: the quotient's bits, with no reciprocal taken per row
        program = Program([parse_expr("(sin(x1) + x2^2) / (3 - pi*e)")])
        assert program.ops[-1] == ("*",) and ("/",) not in program.ops
        assert any(program.ops[k] == ("recip",) for k in program.constants)
        points = np.random.default_rng(order).uniform(-1.0, 1.0, (5, 4))
        quotient = expr_jet(parse_expr("sin(x1) + x2^2"), points, order) / expr_jet(parse_expr("3 - pi*e"), points, order)
        assert np.array_equal(expr_jet(parse_expr("(sin(x1) + x2^2) / (3 - pi*e)"), points, order).c, quotient.c)

    def test_every_catalog_quotient_is_a_product_with_a_shared_reciprocal(self):
        # the ball charts divide several entries by one pointed denominator
        ops = {spec.name: [op[0] for op in spec.program.ops] for spec in charts.catalog()}
        assert all("/" not in names for names in ops.values())
        assert ops["fubini-study"].count("recip") == ops["complex-hyperbolic"].count("recip") == 1

    @pytest.mark.parametrize("order", [0, 1, 2, 3, 4])
    def test_a_pointed_quotient_has_the_bits_of_the_product_with_the_reciprocal(self, order):
        text = "(sin(x1) + x2^2) / (2 + x3*x4)"
        program = Program([parse_expr(text)])
        assert program.ops[-1] == ("*",) and ("/",) not in program.ops
        points = np.random.default_rng(order).uniform(-1.0, 1.0, (5, 4))
        a, b = (expr_jet(parse_expr(part), points, order) for part in ("sin(x1) + x2^2", "2 + x3*x4"))
        assert expr_jet(parse_expr(text), points, order).c.tobytes() == (a * jets.reciprocal(b)).c.tobytes()

    @pytest.mark.parametrize("text", ["x1 / 0", "x1 / (1 - 1)", "x1 / (x2 - x2)"])
    def test_a_zero_denominator_raises_at_one_point_and_in_a_batch(self, text):
        for points in (np.zeros((1, 4)), np.ones((3, 4))):
            with pytest.raises(DomainError, match="zero constant term"):
                expr_jet(parse_expr(text), points, 2)
