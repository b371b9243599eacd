"""Machine-speed calibration: a fixed loop, timed next to the measured work.

On a shared virtual machine the speed of one core drifts by tens of percent
over tens of seconds, and most kinds of work drift together.  The benchmark
therefore times this loop next to every task and scales each measured time
to the speed at which the loop takes ``REFERENCE_S``.  The loop does a fixed
amount of three kinds of work: pure interpreter steps, dense complex matrix
products, and streaming passes over a 100 000-element array.  Of the loops
tried on the reference machine, this mix cut the run-to-run spread of the
short-task workloads most; it does not help a workload whose time sits in
one long task, which has only the two calibration blocks around it.  The
loop does not touch cliffcert, so a change to the program moves the scaled
times as it moves the raw ones.
"""

from __future__ import annotations

import statistics
import time

import numpy as np

# Median time of one loop on the machine the baseline was recorded on
# (2 vCPU Intel Xeon virtual machine, Python 3.11, numpy 2.4, one BLAS thread).
REFERENCE_S = 0.028

_rng = np.random.default_rng(20071185)
_MAT = (_rng.standard_normal((96, 96)) + 1j * _rng.standard_normal((96, 96))) / 96.0
_BIG = _rng.standard_normal(100_000)
# Preallocated outputs: the loop allocates nothing, so its time does not
# depend on how the measured program left the allocator.
_PROD = [_MAT.copy(), np.empty_like(_MAT)]
_BUF = np.empty_like(_BIG)


def loop_s() -> float:
    """Run the fixed loop once; returns its wall time in seconds."""
    start = time.perf_counter()
    acc = 0
    for i in range(130_000):
        acc += i % 7
    for k in range(60):
        np.matmul(_MAT, _PROD[k % 2], out=_PROD[(k + 1) % 2])
    for _ in range(14):
        np.abs(_BIG, out=_BUF)
        np.add(_BUF, 1.0, out=_BUF)
        np.sqrt(_BUF, out=_BUF)
        _BUF.sum()
        np.abs(_BIG, out=_BUF)
        np.log1p(_BUF, out=_BUF)
        _BUF.sum()
    return time.perf_counter() - start


def block(seconds: float) -> float:
    """Median loop time over at least three loops run for at least ``seconds``.

    Scaling a long task by one short loop would add that loop's own noise,
    and the median drops the rare loop that stalls.
    """
    loops = [loop_s() for _ in range(3)]
    while sum(loops) < seconds:
        loops.append(loop_s())
    return statistics.median(loops)


def to_reference(seconds: float, calibrations) -> float:
    """``seconds`` at the speed where the loop takes ``REFERENCE_S``.

    ``calibrations`` are the loop times measured around the interval.
    """
    return seconds * REFERENCE_S * len(calibrations) / sum(calibrations)
