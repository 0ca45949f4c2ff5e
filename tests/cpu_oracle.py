"""Reference CPU model for the grant-order differential test.

This is the generator-based CPU the simulator used before CPU jobs became
task-level wait requests, kept verbatim apart from the ``grants`` log and
the ``label`` argument: ``consume`` is a coroutine used with ``yield
from``, each wait is a :class:`~repro.sim.process.Signal`, and a release
wakes every queued waiter with one event apiece -- one wins the CPU, the
others re-queue. :class:`repro.sim.cpu.Cpu` must reproduce its grant times,
busy intervals, job counters and queue lengths exactly
(``tests/test_sim_cpu_differential.py``).
"""

from __future__ import annotations

from bisect import bisect_right
from collections import deque
from typing import Any, Deque, Generator, List, Optional, Tuple

from repro.errors import SimulationError
from repro.sim.engine import Simulator
from repro.sim.process import Signal, Sleep, WaitSignal


class OracleCpu:
    """Broadcast-wake busy-server: one job at a time, queued arrivals."""

    def __init__(self, sim: Simulator, name: str = "cpu"):
        self.sim = sim
        self.name = name
        self._busy = False
        self._busy_since: Optional[float] = None
        self._queue: Deque[Signal] = deque()
        self._interval_starts: List[float] = []
        self._interval_ends: List[float] = []
        self.busy_time = 0.0
        self.jobs_completed = 0
        self.jobs_cancelled = 0
        self._created_at = sim.now
        #: ``(label, time)`` of every grant, in grant order.
        self.grants: List[Tuple[Any, float]] = []

    def consume(self, seconds: float, label: Any = None) -> Generator:
        if seconds < 0:
            raise SimulationError(f"negative CPU time: {seconds}")
        if seconds == 0.0:
            return
        # Acquire: loop because wakeups are broadcast and a same-instant
        # arrival may win the race; losers simply re-queue.
        while self._busy:
            turn = Signal()
            self._queue.append(turn)
            yield WaitSignal(turn)
        self._busy = True
        self._busy_since = self.sim.now
        self.grants.append((label, self.sim.now))
        completed = False
        try:
            yield Sleep(seconds)
            completed = True
            self.jobs_completed += 1
        finally:
            self._record_busy(self._busy_since, self.sim.now)
            if not completed:
                self.jobs_cancelled += 1
            self._busy = False
            self._busy_since = None
            waiters, self._queue = self._queue, deque()
            for turn in waiters:
                turn.fire_if_unfired()

    def _record_busy(self, start: float, end: float) -> None:
        if end <= start:
            return
        self.busy_time += end - start
        ends = self._interval_ends
        if ends and start <= ends[-1]:
            if end > ends[-1]:
                ends[-1] = end
        else:
            self._interval_starts.append(start)
            ends.append(end)

    @property
    def queue_length(self) -> int:
        return len(self._queue)

    @property
    def busy(self) -> bool:
        return self._busy

    def busy_in(self, start: float, end: float) -> float:
        if end <= start:
            return 0.0
        total = 0.0
        index = bisect_right(self._interval_ends, start)
        starts, ends = self._interval_starts, self._interval_ends
        for i in range(index, len(ends)):
            s = starts[i]
            if s >= end:
                break
            total += min(ends[i], end) - max(s, start)
        if self._busy_since is not None:
            s = max(self._busy_since, start)
            e = min(self.sim.now, end)
            if e > s:
                total += e - s
        return total
