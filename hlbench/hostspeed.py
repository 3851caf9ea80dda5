"""Host-speed reference: a fixed kernel timed between checks to take host load out of timings.

On a 2-core Xeon virtual machine shared with other tenants, the same pass
of the same code runs up to 1.7 times slower for tens of seconds at a time.
That lasts long enough to move the median of a 30 s run: raw wall-clock
medians of ten identical runs spread by up to 0.34 (first quartile to
third, as a share of the median).  The reference kernel below runs the same
kinds of work as hardylab: interpreted Python, a small complex SVD and a
complex matrix product.  It is timed before and after every check, and it
slows down with the host: over 150 s its 8-sample medians tracked those of
a 343×343 complex SVD with correlation 0.92.  Dividing each check by the
mean of the two samples around it removes most of the host's swing.  The
samples must bracket the check in time, not just share its pass: a corpus
pass spends 16 of its 20 s in 8 of its 55 checks.

A host-normalized second is the time in which the reference kernel runs
1000 times, that is ``REFERENCE_S`` per kernel.  Wall-clock values are kept
next to every normalized one in the run record.
"""

from __future__ import annotations

import statistics
from time import perf_counter

import numpy as np

REFERENCE_S = 0.001

_RNG = np.random.default_rng(0)
_MATRIX = _RNG.normal(size=(48, 48)) + 1j * _RNG.normal(size=(48, 48))


def reference_seconds() -> float:
    """Wall time of one run of the fixed reference kernel (about 1 ms)."""
    started = perf_counter()
    total = 0
    for i in range(3000):
        total += i * i
    np.linalg.svd(_MATRIX)
    _MATRIX @ _MATRIX
    return perf_counter() - started


def normalized(wall: float, before: float, after: float) -> float:
    """Wall seconds of work bracketed by two reference samples, in host-normalized seconds."""
    return wall * 2 * REFERENCE_S / (before + after)


def host_factor(samples: list) -> float:
    """How much slower than nominal the host ran: median reference time ÷ REFERENCE_S."""
    return statistics.median(samples) / REFERENCE_S
