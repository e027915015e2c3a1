"""Machine-speed calibration for the benchmark's timings.

On a small virtual machine that shares its host with other work, the speed
of plain Python code drifts by a quarter or more over minutes. That drift is
common to all code, so a fixed reference loop timed right beside the
workload measures it. Every reported time is scaled by REFERENCE_S / (the
reference loop's time), which turns it into the time the work would take
when the reference loop runs in exactly REFERENCE_S. The readable report
prints the unscaled wall-clock figures as well.

The loop mixes what the workloads spend their time on: Fraction and integer
arithmetic, dict churn and small numpy gathers. It runs with the cyclic
garbage collector off, so the size of the caller's heap cannot change its
time.
"""

from __future__ import annotations

import gc
import statistics
import time
from fractions import Fraction

import numpy as np

REFERENCE_S = 0.0015  # the reference loop's time at the reference speed
_TABLE = np.random.default_rng(0).integers(0, 27, size=(27, 27))


def _reference_work() -> int:
    total = 0
    for i in range(1, 120):
        q = Fraction(i % 97 + 1, i) + Fraction(i, i % 89 + 1)
        total += q.numerator % 7
    d = {}
    for i in range(500):
        d[i] = pow(i, 7, 1_000_003)
    t = _TABLE
    for _ in range(4):
        total += int(t[t[:, :, None], t[None, :, :]].sum() % 7)
    return total + len(d)


def reference_seconds() -> float:
    """Median of three timings of the reference loop, in seconds."""
    was_enabled = gc.isenabled()
    gc.disable()
    try:
        times = []
        for _ in range(3):
            t0 = time.perf_counter()
            _reference_work()
            times.append(time.perf_counter() - t0)
    finally:
        if was_enabled:
            gc.enable()
    return statistics.median(times)


def slowdown() -> float:
    """How much slower than the reference speed the machine runs now."""
    return reference_seconds() / REFERENCE_S
