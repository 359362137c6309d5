"""Every `@dataclass` field in `src/ak4/` is read somewhere in `src/ak4/`.

The source is parsed with `ast`, not imported. A field counts as read when
some module loads an attribute of that name (`obj.field`) or calls
`getattr(obj, "field")` with a literal name. Reads are matched by name
only, so a field shares a read with any attribute of the same name.
"""

from __future__ import annotations

import ast
from pathlib import Path

SRC = Path(__file__).resolve().parent.parent / "src" / "ak4"


def _is_dataclass(node: ast.ClassDef) -> bool:
    for deco in node.decorator_list:
        target = deco.func if isinstance(deco, ast.Call) else deco
        if getattr(target, "id", None) == "dataclass" or getattr(target, "attr", None) == "dataclass":
            return True
    return False


def _fields_and_reads(source: str) -> tuple[list[tuple[int, str, str]], set[str]]:
    """(line, class, field) for each dataclass field, and every attribute name read."""
    fields, reads = [], set()
    for node in ast.walk(ast.parse(source)):
        if isinstance(node, ast.ClassDef) and _is_dataclass(node):
            for stmt in node.body:
                if isinstance(stmt, ast.AnnAssign) and isinstance(stmt.target, ast.Name):
                    fields.append((stmt.lineno, node.name, stmt.target.id))
        elif isinstance(node, ast.Attribute) and isinstance(node.ctx, ast.Load):
            reads.add(node.attr)
        elif isinstance(node, ast.Call) and getattr(node.func, "id", None) == "getattr" and len(node.args) >= 2:
            name = node.args[1]
            if isinstance(name, ast.Constant) and isinstance(name.value, str):
                reads.add(name.value)
    return fields, reads


def _unread_fields(sources: dict[str, str]) -> list[str]:
    """`file:line Class.field` for every dataclass field no source reads."""
    fields, reads = [], set()
    for fname, source in sources.items():
        found, read = _fields_and_reads(source)
        fields += [(fname, *f) for f in found]
        reads |= read
    return [f"{fname}:{line} {cls}.{field}" for fname, line, cls, field in fields if field not in reads]


def test_scan_finds_an_unread_field():
    src = (
        "from dataclasses import dataclass\n"
        "@dataclass\n"
        "class R:\n"
        "    a: int\n"
        "    b: int\n"
        "    c: int\n"
        "    d: int = 0\n"
        "def f(r):\n"
        "    r.d = 1\n"
        "    return r.a + getattr(r, 'c')\n"
    )
    assert _unread_fields({"m.py": src}) == ["m.py:5 R.b", "m.py:7 R.d"]


def test_every_field_is_read():
    sources = {path.name: path.read_text(encoding="utf-8") for path in sorted(SRC.glob("*.py"))}
    assert _unread_fields(sources) == []
