"""Host-speed calibration for in-process rounds.

On a shared host the speed of the same code drifts by up to ~30% over
seconds to minutes (other tenants on the sibling hyperthreads). Each
in-process round is bracketed by two samples of a fixed job of interpreter
work and small numpy operations, independent of tradetopo, and its times are
scaled by REFERENCE_S / (mean of the two samples): seconds at the reference
host speed. The raw times and the factor stay in the run record.
"""

from __future__ import annotations

import statistics
import time

import numpy as np

# Median of sample() on the reference host (2-vCPU Xeon, Python 3.11,
# numpy 2.4); only the scale of the reported times depends on it.
REFERENCE_S = 0.013

_A = np.linspace(1.0, 2.0, 24 * 24).reshape(24, 24)
_B = np.linspace(1.0, 1.5, 24)


def _job():
    total = 0
    for i in range(40_000):
        total += i * i
    for _ in range(1_200):
        x = _A * (_B / _B[::-1])[None, :]
        total += float(x.sum(axis=1).max())
    return total


def sample():
    """Median wall time of three runs of the fixed calibration job."""
    times = []
    for _ in range(3):
        t0 = time.perf_counter()
        _job()
        times.append(time.perf_counter() - t0)
    return statistics.median(times)


def bracketed(fn):
    """(result of fn(), factor converting its measured times to
    reference-host seconds)."""
    before = sample()
    out = fn()
    return out, REFERENCE_S / ((before + sample()) / 2.0)
