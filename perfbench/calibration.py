"""Wall times rescaled to a reference machine speed.

The benchmark runs on shared hosts.  There, co-located work slows the same
Python code by up to 1.7x from one second to the next, and moves its
level by tens of per cent over minutes.  CPU time tracks wall time, so no
clock of the process is steady on its own, and a median over a minute
still follows the host.  Each wall figure is therefore rescaled by a
fixed reference kernel timed next to it:

    reference seconds = wall seconds x REFERENCE_S / kernel wall seconds

The kernel is interpreter-bound work in the program's own mix: tuples,
string formatting, a keyed sort, a dict and small NumPy arrays.  A
reference second is a second on a machine that runs the kernel in exactly
``REFERENCE_S``.  A program change moves the rescaled figure as it moves
wall time.  A change in the host's load slows the work and the kernel
alike, and cancels out.

The kernel runs at most every ``EVERY_S`` of a round's timeline, whenever
the round reads its clock (before every scheduler step), and a piece of
work is rescaled by the median of the ``2 * WINDOW`` samples nearest to
it.  Kernel time is kept out of every timed figure.
"""

from __future__ import annotations

import bisect
import gc
import random
import statistics
from time import perf_counter

import numpy as np

#: Kernel wall time that defines one reference second per second.
REFERENCE_S = 1e-3
#: Least timeline seconds between two samples.
EVERY_S = 0.05
#: Samples on each side of a piece of work that rescale it.
WINDOW = 4

_RANDOM = random.Random(0)
_VALUES = [_RANDOM.random() for __ in range(1500)]


def kernel() -> int:
    """The fixed reference work (about 1 ms on a quiet 2.1 GHz x86-64 core)."""
    rows = [(i, x, f"s{i % 50:05d}") for i, x in enumerate(_VALUES)]
    rows.sort(key=lambda row: row[1])
    by_name = {row[2]: row for row in rows}
    head = np.sort(np.array([row[1] for row in rows[:500]]))
    return len(by_name) + int(np.searchsorted(head, 0.5))


def time_kernel() -> float:
    """Wall seconds of one kernel run, with the cyclic collector held off
    so that the program's heap cannot charge its collections to it."""
    enabled = gc.isenabled()
    gc.disable()
    try:
        start = perf_counter()
        kernel()
        return perf_counter() - start
    finally:
        if enabled:
            gc.enable()


class Calibration:
    """Kernel samples along one round's steady-phase timeline."""

    def __init__(self) -> None:
        self.at: list[float] = []
        self.took: list[float] = []
        #: Wall seconds spent sampling, to be kept out of timed figures.
        self.seconds = 0.0

    def tick(self, now: float) -> None:
        """Sample at timeline point ``now`` unless one is too recent."""
        if self.at and now - self.at[-1] < EVERY_S:
            return
        start = perf_counter()
        self.took.append(time_kernel())
        self.at.append(now)
        self.seconds += perf_counter() - start

    def scale(self, at: float) -> float:
        """Reference seconds per wall second at timeline point ``at``."""
        i = bisect.bisect_left(self.at, at)
        near = self.took[max(0, i - WINDOW):i + WINDOW]
        return REFERENCE_S / statistics.median(near)

    def rescale(self, start: float, end: float) -> float:
        """Reference seconds of the timeline stretch ``[start, end]``: each
        piece between two samples at the speed around its middle."""
        lo = bisect.bisect_right(self.at, start)
        hi = bisect.bisect_left(self.at, end)
        cuts = [start, *self.at[lo:hi], end]
        return sum(
            (b - a) * self.scale((a + b) / 2) for a, b in zip(cuts, cuts[1:])
        )
