"""Time, in this fresh interpreter, importing ak4.cli and resolving the catalog charts.

Run with `src` on PYTHONPATH. Prints the elapsed seconds and then the seconds
of one calibration unit measured right after, in the same process.
"""

import time

t0 = time.perf_counter()
from ak4 import charts, cli  # noqa: E402,F401

charts.catalog()
elapsed = time.perf_counter() - t0

import calibration  # noqa: E402

print(elapsed, calibration.unit_seconds())
