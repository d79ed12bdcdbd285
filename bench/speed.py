"""Machine-speed reference for normalising the benchmark's timings.

On a shared machine the speed of one core drifts by tens of percent within
seconds, which is larger than any bound the benchmark can usefully set.
While a run measures, a timer signal interrupts it every REF_TICK_S and
times a short block of a fixed reference kernel. Each operation's latency
is then divided by the median slowdown of the blocks that interrupted it,
widened to at least five blocks around it, so both short and long
operations are compared with the machine's speed at the time. The probe's clock stops while a block runs,
so the blocks themselves are not counted in any latency or span.

The kernel does the same kind of work as triqent (Python bytecode and small
numpy calls) and uses nothing from triqent, so a change to triqent cannot
move it.
"""
from __future__ import annotations

import bisect
import signal
import statistics
from time import perf_counter

import numpy as np

# median time of reference_kernel on a quiet 2-core Xeon (Python 3.11,
# numpy 2.4); only the ratio of two commits' figures is meaningful
REF_NOMINAL_S = 180e-6
# a block of REF_BLOCK_S every REF_TICK_S: the reference takes about 10% of
# the run
REF_TICK_S = 0.02
REF_BLOCK_S = 0.002
REF_MIN_CALLS = 5
REF_MIN_BLOCKS = 5

_M = np.array([[0.6, 0.8j], [0.8j, 0.6]])


def reference_kernel():
    x = 0
    for i in range(200):
        x += i * i
    m = _M
    for _ in range(20):
        m = m @ _M
        m = m / np.linalg.norm(m)
    return x, m


def block_slowdown(seconds: float) -> float:
    """Time the kernel for about ``seconds`` (at least REF_MIN_CALLS times);
    its median time over REF_NOMINAL_S, so 1.0 is the nominal machine."""
    times = []
    until = perf_counter() + seconds
    while True:
        t0 = perf_counter()
        reference_kernel()
        t1 = perf_counter()
        times.append(t1 - t0)
        if t1 >= until and len(times) >= REF_MIN_CALLS:
            return statistics.median(times) / REF_NOMINAL_S


class SpeedProbe:
    """Samples the machine on a timer signal while it is entered.

    ``clock()`` is perf_counter minus the time spent in blocks; ``blocks``
    holds (clock time, slowdown) for each block, in order.
    """

    def __init__(self):
        self.blocks: list[tuple[float, float]] = []
        self._paused = 0.0

    def clock(self) -> float:
        return perf_counter() - self._paused

    def _tick(self, signum, frame) -> None:
        t0 = perf_counter()
        self.blocks.append((t0 - self._paused, block_slowdown(REF_BLOCK_S)))
        self._paused += perf_counter() - t0

    def __enter__(self) -> "SpeedProbe":
        self._old = signal.signal(signal.SIGALRM, self._tick)
        signal.setitimer(signal.ITIMER_REAL, REF_TICK_S, REF_TICK_S)
        return self

    def __exit__(self, *exc) -> None:
        signal.setitimer(signal.ITIMER_REAL, 0.0, 0.0)
        signal.signal(signal.SIGALRM, self._old)
        # the operations after the last tick get a block too
        self._tick(signal.SIGALRM, None)

    def slowdowns(self, spans: list[tuple[float, float]]) -> list[float]:
        """Slowdown for each operation given as (start, end) clock readings:
        the median of the blocks that interrupted it, widened on both sides
        to at least REF_MIN_BLOCKS blocks, since one 2 ms block is noisy."""
        times = [t for t, _ in self.blocks]
        slow = [s for _, s in self.blocks]
        n = len(slow)
        out = []
        for start, end in spans:
            lo = bisect.bisect_left(times, start)
            hi = bisect.bisect_right(times, end)
            while hi - lo < min(REF_MIN_BLOCKS, n):
                if hi < n:
                    hi += 1
                if hi - lo < REF_MIN_BLOCKS and lo > 0:
                    lo -= 1
            out.append(statistics.median(slow[lo:hi]))
        return out

    def slowdown(self) -> float:
        """Median slowdown over all blocks."""
        return statistics.median(s for _, s in self.blocks)
