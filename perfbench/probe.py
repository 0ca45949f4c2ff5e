"""Host-speed probe: a fixed pure-Python job that measures how fast the host runs.

Single-thread speed on a shared host can swing by half within seconds to
minutes, because other tenants share its cores. Host timings are therefore
reported in nominal seconds: wall seconds times the host's speed relative
to nominal, where speed is ``NOMINAL_S / probe time``. The probe does what
the simulator does most (generator resumption, heap traffic, attribute and
dict lookups over a few-MB working set), so it slows down and speeds up
with the simulator; it never touches repository code, so a change to the
program cannot move it. ``Probe.time`` measures between phases;
``SpeedSampler`` samples a slice of the probe from a timer signal while a
phase runs, so speed changes inside a long phase are caught too.
"""

from __future__ import annotations

import gc
import heapq
import random
import signal
import statistics
import time

#: Nominal duration of one probe run, in seconds.
NOMINAL_S = 0.05
ROUNDS = 3


class _Item:
    __slots__ = ("key", "weight")

    def __init__(self, key: int, weight: int):
        self.key = key
        self.weight = weight


class Probe:
    """Builds its working set once; ``time()`` returns one probe's seconds."""

    def __init__(self, size: int = 100_000, steps: int = 20_000):
        rng = random.Random(0)
        self.items = [_Item(i, i % 7) for i in range(size)]
        self.index = {i: self.items[i] for i in range(0, size, 3)}
        self.order = [rng.randrange(size) for _ in range(steps)]

    def _once(self) -> float:
        def source(step: int):
            total = 0
            while True:
                total += step
                yield total

        items, index = self.items, self.index
        sources = [source(k) for k in range(512)]
        heap: list = []
        acc = 0
        start = time.perf_counter()
        for position, key in enumerate(self.order):
            acc += items[key].weight + next(sources[position & 511])
            hit = index.get(key)
            if hit is not None:
                acc += hit.key
            heapq.heappush(heap, (acc & 1023, position))
            if len(heap) > 4096:
                heapq.heappop(heap)
        return time.perf_counter() - start

    def time(self) -> float:
        """Median of ``ROUNDS`` probe runs, in seconds. The collector is off
        meanwhile: its passes would walk the whole simulation heap and make
        the probe depend on what happens to be alive."""
        gc.disable()
        try:
            return statistics.median(self._once() for _ in range(ROUNDS))
        finally:
            gc.enable()


class SpeedSampler:
    """Runs one probe every ``period`` wall seconds from SIGALRM while the
    ``with`` block runs.

    ``speeds`` are host-to-nominal speeds (``NOMINAL_S / probe time``),
    uniform in wall time, and ``spent`` the wall seconds the samples took,
    which the caller subtracts from the phase. The handler touches no
    simulator state and keeps the collector off while it runs.
    """

    def __init__(self, probe: Probe, period: float = 1.0):
        self.probe = probe
        self.period = period
        self.speeds: list = []
        self.spent = 0.0
        self._previous = None

    def _sample(self, _signum, _frame) -> None:
        start = time.perf_counter()
        enabled = gc.isenabled()
        gc.disable()
        try:
            self.speeds.append(NOMINAL_S / self.probe._once())
        finally:
            if enabled:
                gc.enable()
            self.spent += time.perf_counter() - start

    def __enter__(self) -> "SpeedSampler":
        self._previous = signal.signal(signal.SIGALRM, self._sample)
        signal.setitimer(signal.ITIMER_REAL, self.period, self.period)
        return self

    def __exit__(self, *_exc) -> None:
        signal.setitimer(signal.ITIMER_REAL, 0)
        signal.signal(signal.SIGALRM, self._previous)
