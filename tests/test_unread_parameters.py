"""No function in `src/ak4/` takes a parameter its body never names.

The source is parsed with `ast`, not imported. `self`, `cls` and names that
start with `_` are exempt: a leading underscore marks a parameter that an
interface requires but the function does not need.
"""

from __future__ import annotations

import ast
from pathlib import Path

SRC = Path(__file__).resolve().parent.parent / "src" / "ak4"


def _unread_parameters(source: str) -> list[tuple[int, str, str]]:
    """(line, function name, parameter) for every parameter its body never names."""
    found = []
    for node in ast.walk(ast.parse(source)):
        if not isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef, ast.Lambda)):
            continue
        args = node.args
        params = args.posonlyargs + args.args + args.kwonlyargs + [a for a in (args.vararg, args.kwarg) if a]
        body = node.body if isinstance(node.body, list) else [node.body]
        named = {n.id for stmt in body for n in ast.walk(stmt) if isinstance(n, ast.Name)}
        for p in params:
            if p.arg not in named and p.arg not in ("self", "cls") and not p.arg.startswith("_"):
                found.append((node.lineno, getattr(node, "name", "<lambda>"), p.arg))
    return found


def test_scan_finds_an_unread_parameter():
    src = "def f(a, b, _c):\n    return a\n\ng = lambda x, y: y\n"
    assert _unread_parameters(src) == [(1, "f", "b"), (4, "<lambda>", "x")]


def test_every_parameter_is_read():
    unread = [
        f"{path.name}:{line} {name}({param})"
        for path in sorted(SRC.glob("*.py"))
        for line, name, param in _unread_parameters(path.read_text(encoding="utf-8"))
    ]
    assert unread == []
