"""Host-speed correction for timings on a shared, unevenly loaded machine.

On a few vCPUs of a shared host the whole machine runs up to 1.6 times
slower for stretches of seconds to minutes, and process CPU time stretches
with wall time, so the slowdown cannot be told from the program's own cost by
any clock.  A fixed pure-Python loop that shares no code with chanent is
timed right before and right after each measured run; the run's time is then
rescaled to the speed at which that loop takes ``REF_S``.  A change to the
program moves the rescaled time exactly as it moves the raw time; a change of
host speed moves the loop and the run alike and cancels out.

This module is imported by the benchmark and by its fresh-interpreter
probes, so it imports nothing beyond the standard library.
"""

from __future__ import annotations

import time

# The calibration loop's time on the baseline host (2-vCPU Xeon VM) when the
# host was not slowed.  A fixed scale, not a measurement: rescaled times are
# seconds at that host speed.
REF_S = 0.0052
REPEATS = 3


def _loop() -> int:
    total = 0
    for i in range(100_000):
        total += i * i
    return total


def calibrate() -> float:
    """Seconds the calibration loop takes now: the best of ``REPEATS`` tries."""
    best = float("inf")
    for _ in range(REPEATS):
        t0 = time.perf_counter()
        _loop()
        best = min(best, time.perf_counter() - t0)
    return best


def scale(before: float, after: float) -> float:
    """Factor that turns a time measured between two calibrations into
    seconds at the reference speed (below 1 while the host is slow)."""
    return REF_S / ((before + after) / 2.0)
