"""Host-speed sampling, so that timings can be calibrated.

On a small shared machine the speed of a virtual CPU drifts by a quarter or
more over seconds to minutes, as other tenants load the physical core.  That
drift, not the program, dominates run-to-run spread.  So every timed block
is sampled: a fixed pure-Python loop is timed right before and right after
the block, and a ``SIGALRM`` handler times a short run of the same loop every
``TICK_S`` while the block runs.  A block reports its time without the
handler's loops, and the mean nanoseconds per loop iteration seen during it;
:func:`calibrated` scales the time to a host of fixed speed.
"""

from __future__ import annotations

import signal
import time
from contextlib import contextmanager

TICK_S = 0.02
REFERENCE_NS = 60.0  # the loop's time per iteration on the 2-core machine the baseline was measured on
EDGE_ITERATIONS = 100_000
TICK_ITERATIONS = 5_000


def _loop(iterations: int) -> float:
    t0 = time.perf_counter()
    x = 0
    for i in range(iterations):
        x += i * i
    return time.perf_counter() - t0


def calibrated(seconds: float, host_ns: float) -> float:
    """Seconds scaled to a host whose loop takes REFERENCE_NS per iteration."""
    return seconds * REFERENCE_NS / host_ns


class Sampler:
    """Times blocks together with the host's speed during them."""

    def __init__(self):
        _loop(EDGE_ITERATIONS)  # the first run in a process is slower: the interpreter specializes it
        self._edge: float | None = None  # the last edge loop, shared by consecutive blocks
        self._ticks: list[float] = []

    def _tick(self, signum, frame) -> None:
        self._ticks.append(_loop(TICK_ITERATIONS))

    def restart(self) -> None:
        """Measure a fresh leading edge for the next block."""
        self._edge = None

    @contextmanager
    def timing(self):
        """Time the block; fills the yielded dict with ``seconds`` and ``host_ns``."""
        result: dict[str, float] = {}
        before = self._edge if self._edge is not None else _loop(EDGE_ITERATIONS)
        self._ticks = []
        previous = signal.signal(signal.SIGALRM, self._tick)
        signal.setitimer(signal.ITIMER_REAL, TICK_S, TICK_S)
        t0 = time.perf_counter()
        try:
            yield result
        finally:
            elapsed = time.perf_counter() - t0
            signal.setitimer(signal.ITIMER_REAL, 0)
            signal.signal(signal.SIGALRM, previous)
            self._edge = _loop(EDGE_ITERATIONS)
            per_iteration = [before / EDGE_ITERATIONS, self._edge / EDGE_ITERATIONS]
            per_iteration += [t / TICK_ITERATIONS for t in self._ticks]
            result["seconds"] = elapsed - sum(self._ticks)
            result["host_ns"] = 1e9 * sum(per_iteration) / len(per_iteration)
