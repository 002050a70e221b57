"""Host-speed-normalised timing and order statistics.

The host this benchmark was written on changes speed by up to ~1.8x within
seconds (other tenants share its cores), so raw wall medians of separate
processes drift by tens of percent.  Every timed step is therefore bracketed
by a fixed calibration workload that mixes the program's kinds of work
(interpreted Python, tiny and medium numpy calls), and its wall time is
rescaled by ``CAL_REF_S / calibration time``: the result reads as seconds
at the reference host speed.  A change to the program moves the step time
but not the calibration, so the ratio tracks the program.  Raw wall times
are kept next to the normalised ones.
"""

from __future__ import annotations

import statistics
import time
from array import array

import numpy as np

# Median duration of ``_calibration_pass`` at the fast phase of a 2-vCPU
# Intel Xeon host (Python 3.11, numpy 2.4).  A constant: changing it rescales
# every normalised time.
CAL_REF_S = 0.9e-3
# Calibrate again once this much wall time has passed since the last one.
CAL_EVERY_S = 0.25
# The tail is the highest percentile with at least TAIL_BEYOND values above
# it; runs of at least two TAIL_BLOCKs are cut into blocks of that many.
TAIL_BEYOND = 10
TAIL_BLOCK = 1000

_small = np.linspace(1.0, 2.0, 30)
_medium = np.linspace(1.0, 2.0, 951)


def _calibration_pass() -> float:
    t0 = time.perf_counter()
    acc = 0.0
    table = {}
    for i in range(2000):
        acc += (i * i) % 7
        table[i & 127] = (i, acc)
    words = [str(i) for i in range(400)]
    ",".join(words).split(",")
    for _ in range(60):
        x = _small * 1.5
        acc += float((x - x.mean()).sum()) + float(np.sqrt(x).max())
    for _ in range(12):
        m = (_medium >= 1.2) & (_medium <= 1.8)
        acc += float((_medium[m] ** 2).sum())
    return time.perf_counter() - t0


def calibrate() -> float:
    """Median of three calibration passes, in seconds."""
    return sorted(_calibration_pass() for _ in range(3))[1]


class Clock:
    """Times steps and rescales them by the calibrations around them.

    ``step`` runs a callable and records its raw wall time together with the
    index of the last calibration before it; a new calibration runs once
    ``CAL_EVERY_S`` has passed.  A step's factor is ``CAL_REF_S`` over the
    mean of the calibration before and the one after it, so ``close`` must
    run before ``normalised``.  Steps are kept in flat arrays so that a run
    of many tiny ops adds little to the process's memory.
    """

    def __init__(self):
        self.cals = array("d", [calibrate()])
        self._cal_of = array("l")
        self._raw = array("d")
        self._last_cal = time.perf_counter()

    def __len__(self) -> int:
        return len(self._raw)

    def step(self, fn, *args, **kwargs):
        t0 = time.perf_counter()
        try:
            return fn(*args, **kwargs)
        finally:
            t1 = time.perf_counter()
            self._cal_of.append(len(self.cals) - 1)
            self._raw.append(t1 - t0)
            if t1 - self._last_cal >= CAL_EVERY_S:
                self.cals.append(calibrate())
                self._last_cal = time.perf_counter()

    def close(self):
        self.cals.append(calibrate())

    def raw(self, i: int) -> float:
        return self._raw[i]

    def normalised(self, i: int) -> float:
        j = self._cal_of[i]
        return self._raw[i] * CAL_REF_S / ((self.cals[j] + self.cals[j + 1]) / 2)


def tail(values) -> tuple[float, float, int]:
    """Highest percentile with >= ``TAIL_BEYOND`` values above it.

    Returns (value, percentile, count beyond).  The value is the order
    statistic at that percentile's rank.  With at most ``TAIL_BEYOND``
    values no percentile qualifies; the maximum is returned with percentile
    100 and 0 beyond, and callers report that as under-sampled.

    A run of at least two ``TAIL_BLOCK``s of values is cut into consecutive
    blocks, the rule is applied to each, and the median block value is
    returned (with the block percentile and the count beyond per block).
    Far tails of many tiny ops are set by rare host stalls, whose rate
    drifts between runs; the median over blocks keeps the percentile high
    while one stall-heavy stretch cannot move it.
    """
    v = list(values)
    if len(v) >= 2 * TAIL_BLOCK:
        per_block = [tail(v[i:i + TAIL_BLOCK])
                     for i in range(0, len(v) - TAIL_BLOCK + 1, TAIL_BLOCK)]
        _, pct, n_beyond = per_block[0]
        return statistics.median(t[0] for t in per_block), pct, n_beyond
    v.sort()
    n = len(v)
    if n <= TAIL_BEYOND:
        return v[-1], 100.0, 0
    return v[n - TAIL_BEYOND - 1], 100.0 * (n - TAIL_BEYOND) / n, TAIL_BEYOND
