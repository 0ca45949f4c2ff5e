"""Differential test: the task-level CPU grants exactly like the reference.

:class:`repro.sim.cpu.Cpu` parks a yielding task on the CPU itself and
replays a release's waiters in one contest event. ``tests/cpu_oracle.py``
keeps the generator-based model it replaced, where every release woke each
waiter with an event of its own. Both run the same hypothesis-generated
schedules -- same-instant arrivals, back-to-back jobs by the releasing
task, two-job requests, zero-cost jobs, cancellation while queued and
while running -- and must agree on every grant (who, when), every busy
interval, the job counters and the queue length seen at probe instants.
"""

from hypothesis import given, settings
from hypothesis import strategies as st

from repro.sim import Cpu, Simulator, Sleep
from repro.sim.process import spawn
from tests.cpu_oracle import OracleCpu

COSTS = st.sampled_from([0.0, 0.5, 1.0, 1.5])
#: Pause before a request: None is no yield at all (a back-to-back job),
#: 0.0 a zero-length Sleep (a same-instant re-arrival).
GAPS = st.sampled_from([None, None, 0.0, 0.5, 1.0])
REQUEST = st.tuples(GAPS, st.lists(COSTS, min_size=1, max_size=2))
PLAN = st.tuples(
    st.sampled_from([0.0, 0.0, 0.5, 1.0]),
    st.lists(REQUEST, min_size=1, max_size=4),
)
#: (victim, first sleep, second sleep): a canceller task sleeps twice, so
#: its cancel lands at varied places in a busy instant's event order.
CANCEL = st.tuples(
    st.integers(0, 7),
    st.sampled_from([0.0, 0.5, 1.0, 2.0]),
    st.sampled_from([0.0, 0.5, 1.0, 1.5]),
)
SCHEDULE = st.tuples(
    st.lists(PLAN, min_size=1, max_size=8), st.lists(CANCEL, max_size=3)
)

PROBES = [0.25 * step for step in range(60)]
WINDOWS = [(0.0, 3.0), (0.5, 2.0), (1.25, 4.75), (2.0, 20.0), (0.0, 20.0)]


class LoggedCpu(Cpu):
    """The production CPU, recording each grant like the oracle does."""

    def __init__(self, sim):
        super().__init__(sim)
        self.grants = []

    def _start(self, task, token):
        self.grants.append((task.name, self.sim.now))
        super()._start(task, token)


def native_worker(sim, cpu, name, start, plan, log):
    yield Sleep(start)
    for index, (gap, costs) in enumerate(plan):
        if gap is not None:
            yield Sleep(gap)
        yield cpu.consume(*costs)
        log.append((name, index, sim.now))


def oracle_worker(sim, cpu, name, start, plan, log):
    yield Sleep(start)
    for index, (gap, costs) in enumerate(plan):
        if gap is not None:
            yield Sleep(gap)
        for cost in costs:
            yield from cpu.consume(cost, label=name)
        log.append((name, index, sim.now))


def canceller(victim, first, second):
    yield Sleep(first)
    yield Sleep(second)
    victim.cancel()


def run(schedule, native: bool) -> dict:
    plans, cancels = schedule
    sim = Simulator()
    cpu = LoggedCpu(sim) if native else OracleCpu(sim)
    worker = native_worker if native else oracle_worker
    log, samples = [], []
    tasks = [
        spawn(sim, worker(sim, cpu, f"t{i}", start, plan, log), name=f"t{i}")
        for i, (start, plan) in enumerate(plans)
    ]
    for victim, first, second in cancels:
        if victim < len(tasks):
            spawn(sim, canceller(tasks[victim], first, second))
    for when in PROBES:
        sim.schedule(
            when,
            lambda: samples.append(
                (sim.now, cpu.queue_length, cpu.busy, cpu.busy_in(0.0, sim.now))
            ),
        )
    sim.run()
    return {
        "grants": cpu.grants,
        "log": log,
        "samples": samples,
        "intervals": (cpu._interval_starts, cpu._interval_ends),
        "busy_in": [cpu.busy_in(lo, hi) for lo, hi in WINDOWS],
        "busy_time": cpu.busy_time,
        "jobs_completed": cpu.jobs_completed,
        "jobs_cancelled": cpu.jobs_cancelled,
        "queue_length": cpu.queue_length,
        "cancelled": [task.cancelled for task in tasks],
        "end": sim.now,
    }


@settings(max_examples=400, deadline=None)
@given(SCHEDULE)
def test_grants_match_broadcast_wake_oracle(schedule):
    assert run(schedule, native=True) == run(schedule, native=False)


def test_releasing_task_then_earlier_arrival_then_queue():
    """The documented grant order on one hand-built instant: at t=1 the
    releaser's back-to-back job wins; an arrival at t=1 whose event was
    scheduled (at t=0.5) before the release's contest queues ahead of the
    waiter that has been queued since t=0.5."""
    schedule = (
        [
            (0.0, [(None, [1.0]), (None, [1.0])]),  # t0: back-to-back
            (0.5, [(None, [1.0])]),  # t1: queued since 0.5
            (0.5, [(0.5, [1.0])]),  # t2: arrives at the release instant
        ],
        [],
    )
    native = run(schedule, native=True)
    assert native == run(schedule, native=False)
    assert native["grants"] == [("t0", 0.0), ("t0", 1.0), ("t2", 2.0), ("t1", 3.0)]


def test_one_event_per_release_not_per_waiter():
    """Eight queued jobs: the old model fired one wake-up per waiter on
    every release; the contest fires one event per release."""
    counts = {}
    for native in (True, False):
        sim = Simulator()
        cpu = Cpu(sim) if native else OracleCpu(sim)

        def job():
            yield from cpu.consume(1.0)

        for _ in range(8):
            spawn(sim, job())
        sim.run()
        assert sim.now == 8.0
        counts[native] = sim.events_processed
    # 8 spawns + 8 completions + one contest per release with waiters (7).
    assert counts[True] == 23
    assert counts[False] > counts[True]
