"""The host's current speed, from a fixed piece of interpreter work.

On a shared host the same query can take half as long again from one
minute to the next, because other tenants compete for the core's caches and
execution units; process CPU time grows with wall time, so it does not
help.  The benchmark therefore times `calibrate` between queries and
scales each query's wall time by `REFERENCE_S / c`, where `c` is the
median calibration time of the queries around it: the result is the
query's time in seconds on a host that runs `calibrate` in `REFERENCE_S`.
The median over a window of neighbours follows drift over seconds and
minutes while a single slow calibration does not move it.  The loop uses
only the interpreter, never the program under test, so no change to the
program can move it.
"""

from __future__ import annotations

import statistics
import time
from typing import List

# About what `calibrate` takes on the two-vCPU Intel Xeon container the
# benchmark was tuned on, when other tenants leave its core alone.
REFERENCE_S = 0.001

# a query's speed is the median of this many calibrations on each side of it
WINDOW = 4


def _loop() -> float:
    start = time.perf_counter()
    acc = 0
    seen = {}
    for i in range(10000):
        acc = (acc * 31 + i) % 1000003
        seen[i & 255] = acc
    return time.perf_counter() - start


def calibrate() -> float:
    """Seconds that a fixed loop of integer and dict work takes now: the
    fastest of three, so that an interruption inside one does not count."""
    return min(_loop() for _ in range(3))


def scale(calibration_s: float) -> float:
    """Factor that turns wall time at this speed into reference seconds."""
    return REFERENCE_S / calibration_s


def reference_times(times: List[float], calibrations: List[float]) -> List[float]:
    """Query wall times in reference seconds.  `calibrations` has one
    entry more than `times`: query i ran between calibrations i and i + 1."""
    out = []
    for i, t in enumerate(times):
        around = calibrations[max(0, i + 1 - WINDOW): i + 1 + WINDOW]
        out.append(t * scale(statistics.median(around)))
    return out
