"""Times in reference seconds, which machine-speed drift does not move.

On a shared virtual machine the speed of a core changes by half over
tens of seconds, for minutes at a time, so raw times of one workload
scatter by 30 to 40% between runs. A short calibration loop slows down
and speeds up with the program: it does the kind of work flowbound does
(unpacking length-3 arrays, building one from floats, scaled adds, a
dot product, float conversion). `Stopwatch.time` calibrates just
before and just after a call and, through SIGALRM, every TICK_S during
it, and scales the call's time by REF_CALIBRATION_S over the mean of
those calibrations: the result is the time the call takes on a machine
where the loop takes exactly REF_CALIBRATION_S. The loop is the
benchmark's own code; no change to flowbound changes it.
"""

from __future__ import annotations

import math
import signal
import time

import numpy as np

REF_CALIBRATION_S = 0.5e-3
TICK_S = 0.5
_STALE_S = 0.5
_W = np.array([0.1, 0.2, 0.3])


def _calibration_work():
    y = np.array([1.0, 2.0, 3.0])
    acc = 0.0
    for _ in range(200):
        x0, x1, x2 = y[0], y[1], y[2]
        k = np.array((0.5 * x0, x1 - x0, 0.25 * x2))
        y = y + 1e-3 * k
        acc += float(np.dot(y, _W))
        acc = math.sqrt(acc * acc + 1.0)
    return acc


def calibrate() -> float:
    """Best of three runs of the loop: an interruption only ever makes
    one run slower, a slow machine makes all three slower."""
    best = math.inf
    for _ in range(3):
        t0 = time.perf_counter()
        _calibration_work()
        best = min(best, time.perf_counter() - t0)
    return best


class Stopwatch:
    """Times calls in reference seconds (see the module docstring)."""

    def __init__(self):
        self._before = calibrate()
        self._at = time.perf_counter()
        self.raw_s = 0.0   # totals over every timed call, to scale other
        self.ref_s = 0.0   # times measured over the same stretch

    def time(self, fn, *args, **kwargs):
        """(fn's result, fn's time in reference seconds)."""
        if time.perf_counter() - self._at > _STALE_S:
            self._before = calibrate()
        samples = [self._before]
        ticks_s = 0.0

        def tick(_signum, _frame):
            nonlocal ticks_s
            t = time.perf_counter()
            samples.append(calibrate())
            ticks_s += time.perf_counter() - t

        previous = signal.signal(signal.SIGALRM, tick)
        signal.setitimer(signal.ITIMER_REAL, TICK_S, TICK_S)
        try:
            t0 = time.perf_counter()
            result = fn(*args, **kwargs)
            elapsed = time.perf_counter() - t0
        finally:
            signal.setitimer(signal.ITIMER_REAL, 0.0)
            signal.signal(signal.SIGALRM, previous)
        after = calibrate()
        self._at = time.perf_counter()
        self._before = after
        samples.append(after)
        scale = REF_CALIBRATION_S * len(samples) / sum(samples)
        self.raw_s += elapsed - ticks_s
        self.ref_s += (elapsed - ticks_s) * scale
        return result, (elapsed - ticks_s) * scale
