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

Two independent evaluators are provided: `eval_jet` produces truncated
Taylor jets, and `eval_float` is a plain floating-point evaluation used as an
independent reference path.

`eval_jet` has one signature. It evaluates `Program`s, each the distinct
nodes of some root expressions in evaluation order (a straight-line
Taylor-mode program in the sense of Griewank & Walther, Evaluating
Derivatives, 2nd ed., 2008), each at its own batch of points along a leading
axis (the charts of a batch), and returns one coefficient array per program.
Every node's coefficients live in one value table per call, indexed by
point row and node (their tape): the constants, computed once per program
and order, are broadcast into their rows, and the programs run together
level by level, the nodes of one height and one operation going through one
jet operation on their gathered rows. A chart compiles its program once
(`charts.ChartSpec.program`) and keeps it.
"""

from __future__ import annotations

import functools
import math
from dataclasses import dataclass

import numpy as np

from . import jets
from .errors import DomainError, JetOrderError, ParseError
from .jets import Jet

COORD_NAMES = ("x1", "x2", "x3", "x4")
CONSTANTS = {"pi": math.pi, "e": math.e}
FUNCTIONS = ("sin", "cos", "tan", "exp", "log", "sqrt", "sinh", "cosh", "tanh", "atan")
#: Deepest expression tree accepted. `Program` compilation, `eval_float` and
#: `_uses_coordinate` recurse once per level, and a sum of n terms is n levels
#: deep.
MAX_DEPTH = 256


# -- AST ----------------------------------------------------------------------


@dataclass(frozen=True)
class Num:
    value: float


@dataclass(frozen=True)
class Coord:
    index: int  # 0-based


@dataclass(frozen=True)
class Neg:
    arg: "Expr"


@dataclass(frozen=True)
class BinOp:
    op: str  # '+', '-', '*', '/'
    left: "Expr"
    right: "Expr"


@dataclass(frozen=True)
class Pow:
    base: "Expr"
    exponent: float


@dataclass(frozen=True)
class Call:
    fn: str
    arg: "Expr"


Expr = Num | Coord | Neg | BinOp | Pow | Call


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
        except DomainError as exc:
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
                return Num(CONSTANTS[value])
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


class Program:
    """The distinct nodes of some root expressions, in evaluation order.

    Each node is one jet operation `op` on the nodes `args`, which come
    before it: ("const", value), ("x", index), ("neg",), a binary operator,
    ("^", exponent), ("recip",) or a function name. Nodes are interned
    bottom-up by (op, args), so equal subtrees, within one root or across
    roots, are one node, and no expression node is ever hashed. A node that
    uses no coordinate is a constant: its coefficients at each order are
    computed once, without a point axis, and kept. Every quotient a / b is
    interned as a * r with r = ("recip",) of b: the same bits, since a jet
    quotient is the product with the reciprocal, and quotients by one b
    share r (for b constant, r is a constant, kept rather than taken on
    every row). The other nodes are grouped by (height, op), the height
    being 0 at a leaf and one more than the highest argument, so the nodes
    of one group never depend on each other.
    """

    def __init__(self, roots):
        index: dict[tuple, int] = {}
        ops, args, heights, pointed = [], [], [], []

        def intern(op: tuple, kids: tuple) -> int:
            k = index.get((op, kids))
            if k is None:
                k = index[op, kids] = len(ops)
                ops.append(op)
                args.append(kids)
                heights.append(1 + max((heights[a] for a in kids), default=-1))
                pointed.append(op[0] == "x" or any(pointed[a] for a in kids))
            return k

        def visit(node: Expr) -> int:
            op, kids = _op(node), tuple(map(visit, _children(node)))
            if op == ("/",):
                op, kids = ("*",), (kids[0], intern(("recip",), kids[1:]))
            return intern(op, kids)

        self.roots = tuple(visit(root) for root in roots)
        self.ops, self.args = tuple(ops), tuple(args)
        self.constants = tuple(k for k in range(len(ops)) if not pointed[k])
        groups: dict[tuple, list[int]] = {}
        for k in sorted((k for k in range(len(ops)) if pointed[k]), key=heights.__getitem__):
            groups.setdefault((heights[k], ops[k]), []).append(k)
        self.groups = tuple(groups.items())
        self._constant_values: dict[int, np.ndarray] = {}

    def constant_values(self, order: int) -> np.ndarray:
        """The coefficients of the constant nodes at `order`, one row per
        entry of `constants` (a read-only array); computed on the first call
        at each order that raises nothing."""
        vals = self._constant_values.get(order)
        if vals is None:
            by_node: dict[int, np.ndarray] = {}
            for k in self.constants:
                by_node[k] = _apply(self.ops[k], [Jet._of(order, by_node[a]) for a in self.args[k]], order).c
            vals = np.array([by_node[k] for k in self.constants]).reshape(len(self.constants), jets.NCOEF[order])
            vals.flags.writeable = False
            self._constant_values[order] = vals
        return vals


@functools.lru_cache(maxsize=64)
def _plan(programs: tuple[Program, ...], counts: tuple[int, ...]) -> tuple:
    """Every index by which `eval_jet` reads or writes its value table for
    these programs at these point counts: (width, constants, groups, roots).

    The table's rows are the points of all the programs in order, and its
    node axis is as wide as the largest program. `constants` and `roots`
    hold one (rows, nodes) key per program. `groups` holds the (height, op)
    groups of all the programs merged, lowest height first, each as
    (op, rows, args, out): the rows are those of the members' programs, and
    args (one key per argument slot) and out are keys into the table. A
    group of one member is keyed by its program's row slice and node
    numbers, so it reads views; a larger group by one row and one node index
    per row.
    """
    bounds = np.cumsum((0,) + counts).tolist()
    spans = [slice(a, b) for a, b in zip(bounds, bounds[1:])]
    merged: dict[tuple, list[tuple]] = {}
    for t, prog in enumerate(programs):
        for key, nodes in prog.groups:
            merged.setdefault(key, []).extend((t, k) for k in nodes)
    groups = []
    for (_, op), members in sorted(merged.items(), key=lambda item: item[0][0]):
        # the node numbers of each member: its arguments, then itself
        nodes = [programs[t].args[k] + (k,) for t, k in members]
        if len(members) == 1:
            rows = spans[members[0][0]]
            keys = [(rows, k) for k in nodes[0]]
        else:
            rows = np.concatenate([np.arange(bounds[t], bounds[t + 1]) for t, _ in members])
            reps = [counts[t] for t, _ in members]
            keys = [(rows, np.repeat(column, reps)) for column in zip(*nodes)]
        groups.append((op, rows, tuple(keys[:-1]), keys[-1]))
    constants = tuple((span, np.array(prog.constants, dtype=np.intp)) for prog, span in zip(programs, spans))
    roots = tuple((span, np.array(prog.roots, dtype=np.intp)) for prog, span in zip(programs, spans))
    return max((len(prog.ops) for prog in programs), default=0), constants, tuple(groups), roots


def _op(node: Expr) -> tuple:
    if isinstance(node, Num):
        return ("const", node.value)
    if isinstance(node, Coord):
        return ("x", node.index)
    if isinstance(node, Neg):
        return ("neg",)
    if isinstance(node, BinOp):
        return (node.op,)
    if isinstance(node, Pow):
        return ("^", node.exponent)
    if isinstance(node, Call):
        return (node.fn,)
    raise TypeError(f"not an expression node: {node!r}")


def _apply(op: tuple, args: list[Jet], order: int) -> Jet:
    """One jet operation of a program on its argument jets."""
    kind = op[0]
    if kind == "const":
        return Jet.constant(op[1], order)
    if kind == "neg":
        return -args[0]
    if kind == "+":
        return args[0] + args[1]
    if kind == "-":
        return args[0] - args[1]
    if kind == "*":
        return args[0] * args[1]
    if kind == "recip":
        return jets.reciprocal(args[0])
    if kind == "^":
        return jets.power(args[0], op[1])
    return _JET_FUNCS[kind](args[0])


def eval_jet(programs, points, order: int) -> list[np.ndarray]:
    """The truncated Taylor coefficients of the given order of each
    program's roots at its points: `points` holds one (N, 4) array per
    program, and each program gets one (N, n_roots, ncoef) array.

    Every node's coefficients live in one value table, a (rows, nodes,
    ncoef) array whose rows are the points of all the programs in order
    (Griewank & Walther's tape, with the points as rows); the indices come
    from `_plan`, cached by the programs and their point counts. The kept
    constants are broadcast into their programs' rows, then the merged
    (height, op) groups run lowest height first: each gathers its argument
    rows, goes through one jet operation on them, and scatters its result
    back. Every jet operation acts row by row, so the jet of a point equals,
    bit for bit, its jet alone, in any batch and beside any other program,
    and a root that uses no coordinate is its constant on every row. A batch
    raises DomainError exactly when one of its points does alone.
    """
    if not 0 <= order <= jets.MAX_ORDER:
        raise JetOrderError(f"jet order must be in 0..{jets.MAX_ORDER}, got {order}")
    points = [np.asarray(pts, dtype=float) for pts in points]
    width, constants, groups, roots = _plan(tuple(programs), tuple(len(pts) for pts in points))
    coords = points[0] if len(points) == 1 else np.concatenate(points)
    table = np.empty((len(coords), width, jets.NCOEF[order]))
    for prog, key in zip(programs, constants):
        table[key] = prog.constant_values(order)
    for op, rows, args, out in groups:
        if op[0] == "x":
            table[out] = Jet.coordinate(op[1], coords[rows], order).c
        else:
            table[out] = _apply(op, [Jet._of(order, table[key]) for key in args], order).c
    return [table[key] for key in roots]


def eval_float(e: Expr, p) -> float:
    """Plain floating-point evaluation of e at p (no jets involved)."""
    if isinstance(e, Num):
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
        if e.fn in ("sin", "cos", "tan") and math.isinf(arg):
            raise DomainError(f"{e.fn} of an infinite value")
        return _FLOAT_FUNCS[e.fn](arg)
    raise TypeError(f"not an expression node: {e!r}")
