"""In-memory span tracing of ak4 from outside the program.

A `Tracer` replaces public functions of ak4 modules with wrappers that record
one span per call: (name, start_ns, end_ns, parent index). Because ak4 modules
bind some functions by name (`from .exprs import eval_jet`), a wrapper is
installed under every alias of the function found in a loaded `ak4.*` module,
and `uninstall` puts the originals back. The program's files are not changed.

`summarize` turns the span list into per-name call counts, inclusive time
(outermost spans of each name) and self time (duration minus the part of the
interval covered by child spans).
"""

from __future__ import annotations

import itertools
import sys
import time
from collections import Counter
from dataclasses import dataclass, field


class Tracer:
    """Records spans in memory; single-threaded, like the program it traces.

    A span is kept as the tuple (id, name, start_ns, end_ns, parent id) when
    it closes; ids count up in the order spans open. Tuples of plain values
    keep the garbage collector's work flat as spans accumulate.
    """

    def __init__(self):
        self.closed: list[tuple] = []
        self.counters: Counter = Counter()
        self._ids = itertools.count()
        self._stack: list[int] = []
        self._patches: list[tuple[object, str, object]] = []

    @property
    def spans(self) -> list[tuple]:
        """(name, start_ns, end_ns, parent index), in the order spans opened."""
        return [rec[1:] for rec in sorted(self.closed)]

    def call(self, name: str, fn, *args, **kwargs):
        """Run fn(*args, **kwargs) inside a span called name."""
        stack = self._stack
        idx = next(self._ids)
        parent = stack[-1] if stack else -1
        stack.append(idx)
        start = time.perf_counter_ns()
        try:
            return fn(*args, **kwargs)
        finally:
            self.closed.append((idx, name, start, time.perf_counter_ns(), parent))
            stack.pop()

    def wrap(self, module, attr: str, name: str, on_call=None) -> None:
        """Trace every call of module.attr under span `name`.

        on_call(tracer, args) runs before each call, to update counters.
        Raises AttributeError when the module no longer has the attribute.
        """
        original = getattr(module, attr)
        call = self.call

        def traced(*args, **kwargs):
            if on_call is not None:
                on_call(self, args)
            return call(name, original, *args, **kwargs)

        traced.__wrapped__ = original
        package = module.__name__.split(".")[0]
        for mod_name, mod in list(sys.modules.items()):
            if mod is None or not (mod_name == package or mod_name.startswith(package + ".")):
                continue
            for key, value in list(vars(mod).items()):
                if value is original:
                    setattr(mod, key, traced)
                    self._patches.append((mod, key, original))

    def uninstall(self) -> None:
        for mod, key, original in reversed(self._patches):
            setattr(mod, key, original)
        self._patches.clear()


@dataclass
class SpanSummary:
    calls: Counter = field(default_factory=Counter)
    inclusive_ns: Counter = field(default_factory=Counter)
    self_ns: Counter = field(default_factory=Counter)
    root_ns: int = 0  # total duration of spans without a parent


def self_times(spans) -> list[int]:
    """Per span: its duration minus the union of its children's intervals."""
    children: dict[int, list[tuple[int, int]]] = {}
    for name, start, end, parent in spans:
        if parent >= 0:
            children.setdefault(parent, []).append((start, end))
    result = []
    for i, (name, start, end, parent) in enumerate(spans):
        covered = 0
        cursor = start
        for c_start, c_end in sorted(children.get(i, ())):
            lo, hi = max(c_start, cursor), min(c_end, end)
            if hi > lo:
                covered += hi - lo
                cursor = hi
        result.append(end - start - covered)
    return result


def summarize(spans) -> SpanSummary:
    """Calls, inclusive and self time per span name.

    Inclusive time counts only the outermost span of a name on each path, so
    a function that re-enters itself is not counted twice.
    """
    out = SpanSummary()
    ancestors: list[frozenset] = []
    for (name, start, end, parent), own in zip(spans, self_times(spans)):
        above = ancestors[parent] | {spans[parent][0]} if parent >= 0 else frozenset()
        ancestors.append(above)
        out.calls[name] += 1
        out.self_ns[name] += own
        if name not in above:
            out.inclusive_ns[name] += end - start
        if parent < 0:
            out.root_ns += end - start
    return out
