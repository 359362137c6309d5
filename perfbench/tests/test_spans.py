"""Self-time arithmetic and attribute wrapping of the span tracer."""

import sys
import types

import pytest
from spans import Tracer, self_times, summarize

# name, start, end, parent index
TREE = [
    ("cli.main", 0, 100, -1),
    ("a", 10, 40, 0),
    ("leaf", 20, 30, 1),
    ("b", 50, 90, 0),
    ("leaf", 60, 65, 3),
    ("leaf", 70, 72, 3),
]


def test_self_time_is_duration_minus_children():
    assert self_times(TREE) == [30, 20, 10, 33, 5, 2]


def test_self_times_add_up_to_root_duration():
    summary = summarize(TREE)
    assert sum(self_times(TREE)) == summary.root_ns == 100
    assert summary.self_ns == {"cli.main": 30, "a": 20, "b": 33, "leaf": 17}
    assert summary.calls == {"cli.main": 1, "a": 1, "b": 1, "leaf": 3}


def test_overlapping_children_are_counted_once():
    spans = [("p", 0, 100, -1), ("c", 10, 40, 0), ("c", 30, 60, 0), ("c", 90, 120, 0)]
    assert self_times(spans)[0] == 100 - 50 - 10


def test_inclusive_time_counts_outermost_span_of_a_name():
    spans = [("root", 0, 100, -1), ("x", 10, 60, 0), ("y", 15, 50, 1), ("x", 20, 30, 2), ("x", 70, 80, 0)]
    summary = summarize(spans)
    assert summary.inclusive_ns["x"] == 50 + 10
    assert summary.self_ns["x"] == (50 - 35) + 10 + 10
    assert summary.inclusive_ns["y"] == 35


@pytest.fixture
def fake_package(monkeypatch):
    pkg = types.ModuleType("fakepkg")
    sub = types.ModuleType("fakepkg.sub")

    def inner(x):
        return x + 1

    def outer(x):
        return sub.inner(x) * 2

    sub.inner = inner
    sub.outer = outer
    pkg.inner = inner  # a re-export, as `from .sub import inner` makes
    monkeypatch.setitem(sys.modules, "fakepkg", pkg)
    monkeypatch.setitem(sys.modules, "fakepkg.sub", sub)
    return pkg, sub, inner


def test_wrap_traces_every_alias_and_uninstall_restores(fake_package):
    pkg, sub, inner = fake_package
    tracer = Tracer()
    seen = []
    tracer.wrap(sub, "inner", "sub.inner", on_call=lambda t, args: seen.append(args))
    tracer.wrap(sub, "outer", "sub.outer")
    assert tracer.call("root", sub.outer, 1) == 4
    assert pkg.inner(5) == 6
    assert seen == [(1,), (5,)]
    assert [(name, parent) for name, _, _, parent in tracer.spans] == [
        ("root", -1),
        ("sub.outer", 0),
        ("sub.inner", 1),
        ("sub.inner", -1),
    ]
    tracer.uninstall()
    assert pkg.inner is inner and sub.inner is inner


def test_wrap_of_missing_attribute_raises(fake_package):
    _, sub, _ = fake_package
    with pytest.raises(AttributeError):
        Tracer().wrap(sub, "gone", "sub.gone")


@pytest.mark.parametrize("sa,sb", [((), ()), ((4, 4), ()), ((3, 1), (1, 5)), ((2, 3, 1, 1), (1, 4, 6)), ((4, 0), (1,))])
def test_broadcast_size_matches_numpy(sa, sb):
    import numpy as np
    from run import broadcast_size

    assert broadcast_size(sa, sb) == int(np.prod(np.broadcast_shapes(sa, sb)))
