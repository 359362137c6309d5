"""The benchmark's traced functions exist in ak4.

perfbench/run.py wraps each (module, attribute) of its TRACED table in a span;
a renamed or deleted function would leave its layer reading null. The table is
read with ast, because importing run.py sets BLAS thread variables.
"""

from __future__ import annotations

import ast
import importlib
from pathlib import Path

RUN_PY = Path(__file__).resolve().parent.parent / "perfbench" / "run.py"


def _traced_table() -> tuple[tuple[str, str, str], ...]:
    for node in ast.parse(RUN_PY.read_text(encoding="utf-8")).body:
        targets = node.targets if isinstance(node, ast.Assign) else [getattr(node, "target", None)]
        if any(isinstance(t, ast.Name) and t.id == "TRACED" for t in targets):
            return ast.literal_eval(node.value)
    raise AssertionError(f"no TRACED table in {RUN_PY}")


def test_every_traced_function_resolves():
    table = _traced_table()
    assert table
    missing = [
        f"ak4.{module}.{attr}"
        for module, attr, _ in table
        if not callable(getattr(importlib.import_module(f"ak4.{module}"), attr, None))
    ]
    assert missing == []
