"""Deterministic discrete-event simulation kernel.

The kernel provides:

- :class:`~repro.sim.engine.Simulator` -- an event heap with a virtual clock.
- :class:`~repro.sim.process.Task` -- generator-based coroutines ("simulated
  processes") that suspend on wait requests such as
  :class:`~repro.sim.process.Sleep` and :class:`~repro.sim.process.WaitSignal`.
- :class:`~repro.sim.cpu.Cpu` -- one core of compute per replica (used to
  charge cryptographic processing time); ``cpu.consume(cost)`` is a
  :class:`~repro.sim.cpu.CpuJob` wait request.
- :class:`~repro.sim.timers.Timer` -- restartable one-shot timers (used by
  the consensus pacemaker).

Determinism: given the same seed and the same sequence of API calls, two runs
produce byte-identical traces. Ties in the event heap are broken by a
monotonically increasing sequence number, never by object identity.
"""

from repro.sim.engine import EventHandle, Simulator
from repro.sim.process import TIMEOUT, Signal, Sleep, Task, WaitSignal
from repro.sim.cpu import Cpu, CpuJob
from repro.sim.timers import Timer

__all__ = [
    "Simulator",
    "EventHandle",
    "Task",
    "Signal",
    "Sleep",
    "WaitSignal",
    "TIMEOUT",
    "Cpu",
    "CpuJob",
    "Timer",
]
