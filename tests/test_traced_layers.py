"""The benchmark's traced functions exist in ak4, and the structure stage
reaches the traced expression evaluator.

perfbench/run.py wraps each (module, attribute) of its TRACED table in a span;
a renamed or deleted function would leave its layer reading null. The table is
read with ast, because importing run.py sets BLAS thread variables.
"""

from __future__ import annotations

import ast
import importlib
from pathlib import Path

import pytest

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


@pytest.mark.parametrize(("argv", "batch_points", "orders"), [(["--order", "4"], 64, [4]), (["--order", "2"], 64, [2]), (["--order", "4"], 8, [4, 4, 4])])
def test_structure_stage_evaluates_through_the_traced_eval_jet(argv, batch_points, orders, monkeypatch, capsys):
    """The exprs.eval_jet layer measures the evaluation of the chart entries:
    run.py wraps the module attribute, so charts.structure_at must call it
    through the module, once per batch at the command's order (g and J in
    one program; J is truncated to J_SIDE_ORDER afterwards)."""
    from ak4 import cli, exprs

    original, calls = exprs.eval_jet, []

    def counted(e, p, order):
        calls.append(order)
        return original(e, p, order)

    monkeypatch.setattr(exprs, "eval_jet", counted)
    monkeypatch.setattr(cli, "BATCH_POINTS", batch_points)
    assert cli.main(["classify", "--chart", "all", "--points", "4", *argv]) == 0  # 20 points
    assert capsys.readouterr().out
    assert sorted(calls) == orders
