"""Every definition in `src/ak4/` is named by the package outside itself.

The source is parsed with `ast`, not imported. Each top-level function or
class, and each method that is not a dunder, must be named outside its own
definition in some module other than `__init__.py`: re-exporting a name
does not reach it. A function or class name counts when it appears as a
variable (`f`), an attribute (`obj.f`) or a string constant
(`getattr(obj, "f")`); a method name counts only as an attribute or a string
constant, so a local variable of the same name does not reach the method.
Names are matched by name only, so a definition shares a use with anything
of the same name and kind.
"""

from __future__ import annotations

import ast
from collections import Counter
from pathlib import Path

SRC = Path(__file__).resolve().parent.parent / "src" / "ak4"

#: Definitions kept without a reader in `src/ak4/`, each with its reason.
EXEMPT = {
    # the one-axis reference that test_tensor_kernels.py compares jets.partials against
    "jets.py Jet.partial",
}


def _names(tree: ast.AST, variables: bool = True) -> Counter:
    """How often each name appears in the tree as an attribute or string
    constant, and as a variable unless `variables` is false."""
    found = Counter()
    for node in ast.walk(tree):
        if isinstance(node, ast.Name) and variables:
            found[node.id] += 1
        elif isinstance(node, ast.Attribute):
            found[node.attr] += 1
        elif isinstance(node, ast.Constant) and isinstance(node.value, str):
            found[node.value] += 1
    return found


def _definitions(tree: ast.Module):
    """(qualified name, node, is method) for each top-level function and class and each non-dunder method."""
    functions = (ast.FunctionDef, ast.AsyncFunctionDef)
    for node in tree.body:
        if isinstance(node, (*functions, ast.ClassDef)):
            yield node.name, node, False
        if isinstance(node, ast.ClassDef):
            for stmt in node.body:
                if isinstance(stmt, functions) and not (stmt.name.startswith("__") and stmt.name.endswith("__")):
                    yield f"{node.name}.{stmt.name}", stmt, True


def _unreached(sources: dict[str, str]) -> list[str]:
    """`file qualified-name` for every definition no module but `__init__.py` names outside it."""
    trees = {fname: ast.parse(source) for fname, source in sources.items()}
    counted = [tree for fname, tree in trees.items() if fname != "__init__.py"]
    uses = {variables: sum((_names(tree, variables) for tree in counted), Counter()) for variables in (True, False)}
    return [
        f"{fname} {qualname}"
        for fname, tree in trees.items()
        for qualname, node, is_method in _definitions(tree)
        if uses[not is_method][node.name] - _names(node, not is_method)[node.name] <= 0
    ]


def test_scan_finds_an_unreached_definition():
    sources = {
        "__init__.py": "from .m import exported\n",
        "m.py": (
            "def exported():\n"
            "    return exported()\n"
            "def called():\n"
            "    pass\n"
            "class K:\n"
            "    def __repr__(self):\n"
            "        return ''\n"
            "    def by_name(self):\n"
            "        pass\n"
            "    def unused(self):\n"
            "        return self.by_name\n"
            "    def shadowed(self):\n"
            "        pass\n"
        ),
        "n.py": "from .m import called\ncalled()\nx = getattr(object, 'K')\nshadowed = 1\nprint(shadowed)\n",
    }
    assert _unreached(sources) == ["m.py exported", "m.py K.unused", "m.py K.shadowed"]


def test_every_definition_is_reached():
    sources = {path.name: path.read_text(encoding="utf-8") for path in sorted(SRC.glob("*.py"))}
    assert [d for d in _unreached(sources) if d not in EXEMPT] == []
