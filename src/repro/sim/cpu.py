"""Single-core CPU resource with queued arrivals.

Each replica owns one :class:`Cpu`. Cryptographic work (signing, verifying,
aggregating) is charged to the CPU via :meth:`Cpu.consume`, so concurrent
pipelined consensus instances on the same node contend for compute exactly
as they would on one core of the paper's testbed machines. Utilization is
tracked so experiments can flag CPU-saturated data points (the paper marks
these with red circles).

A job is a :class:`CpuJob` wait request: the yielding task is parked on the
CPU itself, which acquires, runs and releases the job without resuming the
task's generator in between. Grants follow this order:

1. A job that finds the CPU idle takes it at once -- including the
   releasing task's own back-to-back job, and same-instant arrivals that
   were scheduled before the release's contest.
2. A release with live waiters schedules one *contest* event at the
   current instant. It replays the waiters queued at release time in
   arrival order: the first one still waiting takes the CPU if it is idle,
   the others re-queue behind whatever arrived in between.

That is exactly what a broadcast wake-up of every waiter (one event each,
consecutive in the event order, each losing waiter re-queueing) produced,
at the cost of one event per release instead of one per waiter.

Busy time is checkpointed as a sorted list of coalesced ``[start, end)``
intervals, so :meth:`busy_in` -- and therefore :meth:`utilization` over an
arbitrary measurement window -- is exact: a job straddling the window edge
contributes only its in-window part, a job cancelled mid-run still
contributes the compute it performed before dying, and the job running
right now contributes up to the current instant. Back-to-back jobs merge
into one interval, so a saturated CPU costs O(1) memory however many jobs
it serves.
"""

from __future__ import annotations

from bisect import bisect_right
from collections import deque
from typing import Any, Deque, List, Optional, Tuple

from repro.errors import SimulationError
from repro.sim.engine import Simulator
from repro.sim.process import PARKED, Task, WaitRequest


class CpuJob(WaitRequest):
    """Wait request: run ``costs`` (seconds each) back to back on ``cpu``.

    The task resumes once, after the last job. Between two jobs the CPU is
    released and immediately re-taken, so each still counts (and contends)
    as a job of its own. Zero-cost jobs are skipped; a request with no
    work left resumes the task at once, without queueing or any event.
    """

    __slots__ = ("cpu", "costs", "index")

    def __init__(self, cpu: "Cpu", costs: Tuple[float, ...]):
        for cost in costs:
            if cost < 0:
                raise SimulationError(f"negative CPU time: {cost}")
        if 0.0 in costs:
            costs = tuple(cost for cost in costs if cost)
        self.cpu = cpu
        self.costs = costs
        self.index = 0

    def _park(self, task: Task, token: int) -> Any:
        if not self.costs:
            return None
        cpu = self.cpu
        task._job = self
        if cpu._holder is None:
            cpu._start(task, token)
        else:
            cpu._queue.append((task, token))
        return PARKED


class Cpu:
    """One core: one job at a time, queued arrivals (see the module doc).

    Coroutine usage::

        yield node.cpu.consume(cost_model.bls_verify)
    """

    __slots__ = (
        "sim", "name", "_holder", "_busy_since", "_queue",
        "_interval_starts", "_interval_ends", "busy_time",
        "jobs_completed", "jobs_cancelled", "_created_at",
    )

    def __init__(self, sim: Simulator, name: str = "cpu"):
        self.sim = sim
        self.name = name
        #: The task whose job is running, or None when idle.
        self._holder: Optional[Task] = None
        self._busy_since: Optional[float] = None
        #: Waiting ``(task, token)`` entries in arrival order. An entry
        #: whose task was cancelled goes stale (token mismatch) and is
        #: dropped at the next release, as a broadcast wake-up would.
        self._queue: Deque[Tuple[Task, int]] = deque()
        #: Coalesced, time-sorted busy intervals; parallel lists so window
        #: queries can bisect the end times directly.
        self._interval_starts: List[float] = []
        self._interval_ends: List[float] = []
        self.busy_time = 0.0
        self.jobs_completed = 0
        self.jobs_cancelled = 0
        self._created_at = sim.now

    def consume(self, *costs: float) -> CpuJob:
        """Wait request occupying the CPU for each of ``costs`` in turn.

        Zero-cost work returns immediately without queueing, so disabled
        cost models add no events.
        """
        return CpuJob(self, costs)

    def _start(self, task: Task, token: int) -> None:
        job = task._job
        self._holder = task
        self._busy_since = self.sim.now
        task._pending_timer = self.sim.schedule(
            job.costs[job.index], self._complete, task, token
        )

    def _complete(self, task: Task, token: int) -> None:
        """Event: the holder's current job finished."""
        job = task._job
        task._pending_timer = None
        self._release(completed=True)
        job.index += 1
        if job.index < len(job.costs):
            self._start(task, token)
        else:
            task._job = None
            task._step(token)

    def _withdraw(self, task: Task) -> None:
        """``task`` is being thrown into (cancelled) while queued or running.

        A running job frees the CPU now, charged its partial busy time; a
        queued entry simply goes stale.
        """
        task._job = None
        if self._holder is task:
            self._release(completed=False)

    def _release(self, completed: bool) -> None:
        # Checkpoint the busy span up to *now*: the full cost on normal
        # completion, the partial cost when cancelled mid-job.
        self._record_busy(self._busy_since, self.sim.now)
        if completed:
            self.jobs_completed += 1
        else:
            self.jobs_cancelled += 1
        self._holder = None
        self._busy_since = None
        waiters = self._queue
        if waiters:
            self._queue = deque()
            for task, token in waiters:
                if task._wait_token == token:
                    self.sim.schedule_now(self._contest, waiters)
                    break

    def _contest(self, waiters: Deque[Tuple[Task, int]]) -> None:
        """Event: replay the waiters of one release in arrival order."""
        queue = self._queue
        for entry in waiters:
            task, token = entry
            if task._wait_token != token:
                continue  # cancelled while queued
            if self._holder is None:
                self._start(task, token)
            else:
                queue.append(entry)

    def _record_busy(self, start: float, end: float) -> None:
        if end <= start:
            return
        self.busy_time += end - start
        ends = self._interval_ends
        # Jobs start in nondecreasing time order; a job starting exactly
        # when its predecessor finished extends that interval in place.
        if ends and start <= ends[-1]:
            if end > ends[-1]:
                ends[-1] = end
        else:
            self._interval_starts.append(start)
            ends.append(end)

    @property
    def queue_length(self) -> int:
        """Number of jobs waiting (excludes the one running)."""
        return len(self._queue)

    @property
    def busy(self) -> bool:
        return self._holder is not None

    def busy_in(self, start: float, end: float) -> float:
        """Exact busy seconds inside the half-open window ``[start, end)``.

        Includes completed jobs, the partial work of jobs cancelled
        mid-execution, and the in-progress job up to ``min(end, now)``.
        """
        if end <= start:
            return 0.0
        total = 0.0
        # Skip intervals that finished at or before the window start.
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

    def utilization(self, since: float = 0.0, until: Optional[float] = None) -> float:
        """Fraction of wall (simulated) time spent computing over the
        half-open window ``[since, until)`` (``until`` defaults to now).

        Exact by construction: the numerator is the checkpointed busy time
        *inside* the window, never lifetime busy time divided by a shorter
        window -- so no clamp is needed (or wanted: a clamp would mask
        exactly that overstatement bug).
        """
        hi = self.sim.now if until is None else until
        lo = max(since, self._created_at)
        elapsed = hi - lo
        if elapsed <= 0:
            return 0.0
        return self.busy_in(lo, hi) / elapsed

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        return f"Cpu({self.name!r}, busy={self.busy}, queued={len(self._queue)})"
