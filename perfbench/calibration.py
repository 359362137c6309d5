"""A fixed CPU kernel, timed next to every benchmarked command, that takes the
machine's speed of the moment out of the throughput figure.

On a shared host the same command's wall time can swing by a factor of two
within seconds, while the ratio of its wall time to this kernel's wall time,
measured just before and after it, stays within a few percent. The kernel
mixes what ak4 spends its time on: gathers, products and segmented sums on
small numpy arrays, and Python-level dict and call work. It uses no ak4 code,
so no change to the program can move it.
"""

from __future__ import annotations

import statistics
import time

import numpy as np

#: Wall seconds of one unit on the reference machine; throughput is reported
#: in seconds of that machine ("reference seconds").
REFERENCE_UNIT_S = 0.010

_ITERATIONS = 150
_rng = np.random.default_rng(20240601)
_A = _rng.random((4, 4, 70))
_B = _rng.random((4, 4, 70))
_IA = _rng.integers(0, 70, 495)
_IB = _rng.integers(0, 70, 495)
_STARTS = np.concatenate(([0], np.sort(_rng.choice(np.arange(1, 495), 69, replace=False))))


def _unit() -> float:
    acc = 0.0
    for _ in range(_ITERATIONS):
        r = np.add.reduceat(_A[..., _IA] * _B[..., _IB], _STARTS, axis=-1)
        d = {j: j * 0.5 for j in range(50)}
        acc += r[0, 0, 0] + sum(d.values())
    return acc


def unit_seconds(repeats: int = 3) -> float:
    """Median wall seconds of one unit over `repeats` runs."""
    times = []
    for _ in range(repeats):
        t0 = time.perf_counter()
        _unit()
        times.append(time.perf_counter() - t0)
    return statistics.median(times)
