"""Parser and evaluators for scalar expressions in the coordinates x1..x4.

Grammar (whitespace insignificant):

    expr   := term (('+' | '-') term)*
    term   := unary (('*' | '/') unary)*
    unary  := '-' unary | power
    power  := atom ('^' unary)?          # right-associative, constant exponent
    atom   := NUMBER | IDENT | IDENT '(' expr ')' | '(' expr ')'

Precedence is ^ > unary minus > * / > + -. The right operand of '^' must be
a constant (it may use pi/e and arithmetic but no coordinate). Identifiers
are the coordinates x1..x4, the constants pi and e, and the functions
sin, cos, tan, exp, log, sqrt, sinh, cosh, tanh, atan.

Two independent evaluators are provided: `eval_jet` produces a truncated
Taylor jet, at one point or at a batch of points along a leading axis, and
`eval_float` is a plain floating-point evaluation used as an independent
reference path. A memo of `eval_jet` belongs to one batch, such as the
sample points of one chart.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, fields

import numpy as np

from . import jets
from .errors import DomainError, JetOrderError, ParseError
from .jets import Jet

COORD_NAMES = ("x1", "x2", "x3", "x4")
CONSTANTS = {"pi": math.pi, "e": math.e}
FUNCTIONS = ("sin", "cos", "tan", "exp", "log", "sqrt", "sinh", "cosh", "tanh", "atan")
#: Deepest expression tree accepted. Both evaluators recurse once per level,
#: and a sum of n terms is n levels deep.
MAX_DEPTH = 256


# -- AST ----------------------------------------------------------------------


class _Node:
    """Base of the AST node classes. Each node computes its structural hash
    once, when it is built, from its fields (a child's hash is already
    stored), so hashing a memo key in `eval_jet` does not walk the subtree.
    Equality stays the structural field comparison of the dataclasses."""

    def __init_subclass__(cls, **kwargs):
        # Set before @dataclass runs, which keeps a `__hash__` already in the
        # class dict instead of writing one that rehashes every field.
        super().__init_subclass__(**kwargs)
        cls.__hash__ = _Node.__hash__

    def __post_init__(self):
        object.__setattr__(self, "_hash", hash((type(self), *(getattr(self, f.name) for f in fields(self)))))

    def __hash__(self):
        return self._hash


@dataclass(frozen=True)
class Num(_Node):
    value: float


@dataclass(frozen=True)
class Const(_Node):
    name: str

    @property
    def value(self) -> float:
        return CONSTANTS[self.name]


@dataclass(frozen=True)
class Coord(_Node):
    index: int  # 0-based

    @property
    def name(self) -> str:
        return COORD_NAMES[self.index]


@dataclass(frozen=True)
class Neg(_Node):
    arg: "Expr"


@dataclass(frozen=True)
class BinOp(_Node):
    op: str  # '+', '-', '*', '/'
    left: "Expr"
    right: "Expr"


@dataclass(frozen=True)
class Pow(_Node):
    base: "Expr"
    exponent: float


@dataclass(frozen=True)
class Call(_Node):
    fn: str
    arg: "Expr"


Expr = Num | Const | Coord | Neg | BinOp | Pow | Call


# -- tokenizer ----------------------------------------------------------------

_OPS = set("+-*/^(),")


def _tokenize(text: str):
    """Yield (kind, value, offset) with kind in num/ident/op."""
    i, n = 0, len(text)
    while i < n:
        ch = text[i]
        if ch.isspace():
            i += 1
            continue
        if ch.isdigit() or (ch == "." and i + 1 < n and text[i + 1].isdigit()):
            j = i
            while j < n and (text[j].isdigit() or text[j] == "."):
                j += 1
            if j < n and text[j] in "eE":
                k = j + 1
                if k < n and text[k] in "+-":
                    k += 1
                if k < n and text[k].isdigit():
                    j = k
                    while j < n and text[j].isdigit():
                        j += 1
            try:
                value = float(text[i:j])
            except ValueError:
                raise ParseError(f"malformed number {text[i:j]!r}", i) from None
            yield ("num", value, i)
            i = j
            continue
        if ch.isalpha() or ch == "_":
            j = i
            while j < n and (text[j].isalnum() or text[j] == "_"):
                j += 1
            yield ("ident", text[i:j], i)
            i = j
            continue
        if ch in _OPS:
            yield ("op", ch, i)
            i += 1
            continue
        raise ParseError(f"unexpected character {ch!r}", i)
    yield ("end", "", n)


class _Parser:
    def __init__(self, text: str):
        self.text = text
        self.tokens = list(_tokenize(text))
        self.pos = 0

    def peek(self):
        return self.tokens[self.pos]

    def advance(self):
        tok = self.tokens[self.pos]
        self.pos += 1
        return tok

    def expect_op(self, op: str):
        kind, value, offset = self.peek()
        if kind != "op" or value != op:
            raise ParseError(f"expected {op!r}", offset)
        return self.advance()

    # precedence-climbing productions

    def expr(self) -> Expr:
        node = self.term()
        while True:
            kind, value, _ = self.peek()
            if kind == "op" and value in "+-":
                self.advance()
                node = BinOp(value, node, self.term())
            else:
                return node

    def term(self) -> Expr:
        node = self.unary()
        while True:
            kind, value, _ = self.peek()
            if kind == "op" and value in "*/":
                self.advance()
                node = BinOp(value, node, self.unary())
            else:
                return node

    def unary(self) -> Expr:
        kind, value, _ = self.peek()
        if kind == "op" and value == "-":
            self.advance()
            return Neg(self.unary())
        return self.power()

    def power(self) -> Expr:
        base = self.atom()
        kind, value, _ = self.peek()
        if kind == "op" and value == "^":
            self.advance()
            _, _, exp_offset = self.peek()
            exponent = self.unary()  # right-associative via recursion
            return Pow(base, self._fold_constant(exponent, exp_offset))
        return base

    def _fold_constant(self, node: Expr, offset: int) -> float:
        if _uses_coordinate(node):
            raise ParseError("exponent must be a numeric constant", offset)
        try:
            value = eval_float(node, (0.0, 0.0, 0.0, 0.0))
        except OverflowError:
            raise ParseError("exponent overflows the float range", offset) from None
        except (ValueError, DomainError) as exc:
            raise ParseError(f"exponent cannot be evaluated: {exc}", offset) from None
        if not math.isfinite(value):
            raise ParseError(f"exponent is not finite: {value}", offset)
        return value

    def atom(self) -> Expr:
        kind, value, offset = self.advance()
        if kind == "num":
            return Num(value)
        if kind == "op" and value == "(":
            node = self.expr()
            self.expect_op(")")
            return node
        if kind == "ident":
            if value in COORD_NAMES:
                return Coord(COORD_NAMES.index(value))
            if value in CONSTANTS:
                return Const(value)
            if value in FUNCTIONS:
                self.expect_op("(")
                arg = self.expr()
                k2, v2, off2 = self.peek()
                if k2 == "op" and v2 == ",":
                    raise ParseError(f"function {value!r} takes exactly one argument", off2)
                self.expect_op(")")
                return Call(value, arg)
            raise ParseError(f"unknown identifier {value!r}", offset)
        raise ParseError("expected a number, identifier or '('", offset)


def _children(node: Expr) -> tuple:
    if isinstance(node, BinOp):
        return (node.left, node.right)
    if isinstance(node, (Neg, Call)):
        return (node.arg,)
    if isinstance(node, Pow):
        return (node.base,)
    return ()


def _depth(node: Expr) -> int:
    """Height of the expression tree, measured level by level without recursion."""
    level, height = [node], 0
    while level:
        height += 1
        level = [child for n in level for child in _children(n)]
    return height


def _uses_coordinate(node: Expr) -> bool:
    return isinstance(node, Coord) or any(_uses_coordinate(child) for child in _children(node))


def parse_expr(text: str) -> Expr:
    """Parse expression text into an AST. Raises ParseError with byte offset."""
    if not text or not text.strip():
        raise ParseError("empty expression", 0)
    parser = _Parser(text)
    try:
        node = parser.expr()
    except RecursionError:
        raise ParseError("expression nested too deeply", parser.peek()[2]) from None
    kind, _, offset = parser.peek()
    if kind != "end":
        raise ParseError("unexpected trailing input", offset)
    if _depth(node) > MAX_DEPTH:
        raise ParseError(f"expression nested deeper than {MAX_DEPTH} levels", 0)
    return node


# -- evaluation ---------------------------------------------------------------

_JET_FUNCS = {
    "sin": jets.sin,
    "cos": jets.cos,
    "tan": jets.tan,
    "exp": jets.exp,
    "log": jets.log,
    "sqrt": jets.sqrt,
    "sinh": jets.sinh,
    "cosh": jets.cosh,
    "tanh": jets.tanh,
    "atan": jets.atan,
}

_FLOAT_FUNCS = {
    "sin": math.sin,
    "cos": math.cos,
    "tan": math.tan,
    "exp": math.exp,
    "log": math.log,
    "sqrt": math.sqrt,
    "sinh": math.sinh,
    "cosh": math.cosh,
    "tanh": math.tanh,
    "atan": math.atan,
}


def eval_jet(e: Expr, p, order: int, memo: dict | None = None) -> Jet:
    """Evaluate e as a truncated Taylor jet of the given order at point p.

    p is one point (4 coordinates) or an array of points of shape (..., 4),
    whose leading axes the jet keeps: the jet of a batch at point k equals,
    bit for bit, the jet of that point alone. A subexpression that uses no
    coordinate has no point axis; it broadcasts against the others, and so
    does the result when e uses no coordinate at all. A batch raises
    DomainError exactly when one of its points does alone.

    `memo` shares work between calls. Each subexpression's jet is stored in
    it under (node, points, order), so a subtree that recurs within e, or in
    another expression evaluated with the same memo, is evaluated once. Nodes
    compare by structure, and equal parsed nodes evaluate to the same bits at
    the same points and order (the parser makes no negative zero, the only
    float equal to a float of different bits), so a memo changes no value.

    A memo belongs to one batch of points, such as the sample points of one
    chart. Its keys keep it from handing back a jet of other points or of
    another order, but one kept across batches only grows. It holds the jets
    it returns, so callers must not modify them in place.
    """
    if not 0 <= order <= jets.MAX_ORDER:
        raise JetOrderError(f"jet order must be in 0..{jets.MAX_ORDER}, got {order}")
    p = np.asarray(p, dtype=float)
    return _eval_jet(e, p, (p.shape, p.tobytes()), order, {} if memo is None else memo)


def _eval_jet(e: Expr, p: np.ndarray, where: tuple, order: int, memo: dict) -> Jet:
    key = (e, where, order)
    jet = memo.get(key)
    if jet is None:
        jet = memo[key] = _eval_node(e, p, where, order, memo)
    return jet


def _eval_node(e: Expr, p: np.ndarray, where: tuple, order: int, memo: dict) -> Jet:
    if isinstance(e, (Num, Const)):
        return Jet.constant(e.value, order)
    if isinstance(e, Coord):
        return Jet.coordinate(e.index, p, order)
    if isinstance(e, Neg):
        return -_eval_jet(e.arg, p, where, order, memo)
    if isinstance(e, BinOp):
        left = _eval_jet(e.left, p, where, order, memo)
        right = _eval_jet(e.right, p, where, order, memo)
        if e.op == "+":
            return left + right
        if e.op == "-":
            return left - right
        if e.op == "*":
            return left * right
        return left / right
    if isinstance(e, Pow):
        return jets.power(_eval_jet(e.base, p, where, order, memo), e.exponent)
    if isinstance(e, Call):
        return _JET_FUNCS[e.fn](_eval_jet(e.arg, p, where, order, memo))
    raise TypeError(f"not an expression node: {e!r}")


def eval_float(e: Expr, p) -> float:
    """Plain floating-point evaluation of e at p (no jets involved)."""
    if isinstance(e, Num):
        return e.value
    if isinstance(e, Const):
        return e.value
    if isinstance(e, Coord):
        return float(p[e.index])
    if isinstance(e, Neg):
        return -eval_float(e.arg, p)
    if isinstance(e, BinOp):
        left = eval_float(e.left, p)
        right = eval_float(e.right, p)
        if e.op == "+":
            return left + right
        if e.op == "-":
            return left - right
        if e.op == "*":
            return left * right
        if right == 0.0:
            raise DomainError("division by zero")
        return left / right
    if isinstance(e, Pow):
        base = eval_float(e.base, p)
        if e.exponent != int(e.exponent) and base <= 0.0:
            raise DomainError("non-integer power of a non-positive base")
        if base == 0.0 and e.exponent < 0:
            raise DomainError("zero raised to a negative power")
        return base**e.exponent
    if isinstance(e, Call):
        arg = eval_float(e.arg, p)
        if e.fn == "log" and arg <= 0.0:
            raise DomainError("log of a non-positive value")
        if e.fn == "sqrt" and arg < 0.0:
            raise DomainError("sqrt of a negative value")
        return _FLOAT_FUNCS[e.fn](arg)
    raise TypeError(f"not an expression node: {e!r}")
