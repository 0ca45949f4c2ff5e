"""Generator-based simulated processes ("tasks").

A task is a Python generator that suspends by yielding *wait requests*:

- ``yield Sleep(duration)`` -- resume after ``duration`` simulated seconds.
- ``yield WaitSignal(signal)`` -- resume when the signal fires; evaluates to
  the value the signal was fired with.
- ``yield WaitSignal(signal, timeout=d)`` -- same, but evaluates to the
  sentinel :data:`TIMEOUT` if the signal has not fired within ``d`` seconds.
- ``yield cpu.consume(cost)`` -- run ``cost`` seconds of work on a
  :class:`~repro.sim.cpu.Cpu` (see :class:`~repro.sim.cpu.CpuJob`).
- ``yield endpoint.receive(tag)`` -- block for a tagged message (see
  :meth:`repro.net.network.Endpoint.receive`).
- ``yield other_task`` -- join: resume when the task finishes; evaluates to
  its return value (re-raising its exception, if any).

Every request is a :class:`WaitRequest`: the task hands itself to the
request, which arranges the wake-up directly -- a CPU job is acquired, run
and released without resuming the generator in between, and a receive is
registered with the endpoint, which hands the message straight to the task.
A request whose result is already available (a queued message, zero-cost
work) resumes the generator synchronously, without an event. Requests are
also iterable, so ``yield from request`` works as well as ``yield request``.

Sub-coroutines compose with plain ``yield from``; their ``return`` value is
the expression value, exactly like real coroutines. This lets the paper's
blocking pseudocode (Algorithms 1-3) transcribe almost verbatim.

Cancellation throws :class:`~repro.errors.TaskCancelled` inside the
generator at its current suspension point.
"""

from __future__ import annotations

from typing import Any, Callable, Generator, List, Optional, Union

from repro.errors import SimulationError, TaskCancelled
from repro.sim.engine import EventHandle, Simulator
from repro.sim.wheel import TimeoutHandle


class _Timeout:
    """Singleton sentinel returned by timed-out waits."""

    __slots__ = ()

    def __repr__(self) -> str:
        return "TIMEOUT"

    def __bool__(self) -> bool:
        return False


TIMEOUT = _Timeout()


#: What a request's ``_park`` returns when the task must wait.
PARKED = object()


class WaitRequest:
    """Base class of everything a task may yield.

    ``_park(task, token)`` either arranges for ``task._step(token, value)``
    to run when the wait ends and returns :data:`PARKED`, or returns the
    result at once (the task then resumes without an event).
    """

    __slots__ = ()

    def _park(self, task: "Task", token: int) -> Any:
        raise NotImplementedError

    def __iter__(self) -> Generator:
        # ``yield from request``: suspend on it, evaluate to its result.
        return (yield self)


class Sleep(WaitRequest):
    """Wait request: suspend for a fixed simulated duration."""

    __slots__ = ("duration",)

    def __init__(self, duration: float):
        if duration < 0:
            raise SimulationError(f"negative sleep: {duration}")
        self.duration = duration

    def _park(self, task: "Task", token: int) -> Any:
        task._pending_timer = task.sim.schedule(self.duration, task._step, token)
        return PARKED


class Signal:
    """One-shot broadcast event carrying an optional value.

    ``fire`` wakes every current waiter (in wait order) and makes all future
    waits complete immediately. Firing twice raises, preserving single-use
    semantics; use :meth:`fire_if_unfired` for races that are benign.
    """

    __slots__ = ("fired", "value", "_waiters")

    def __init__(self) -> None:
        self.fired = False
        self.value: Any = None
        self._waiters: List[Callable[[Any], None]] = []

    def fire(self, value: Any = None) -> None:
        if self.fired:
            raise SimulationError("signal fired twice")
        self.fired = True
        self.value = value
        waiters, self._waiters = self._waiters, []
        for waiter in waiters:
            waiter(value)

    def fire_if_unfired(self, value: Any = None) -> bool:
        """Fire unless already fired; returns whether this call fired it."""
        if self.fired:
            return False
        self.fire(value)
        return True

    def add_waiter(self, callback: Callable[[Any], None]) -> Callable[[], None]:
        """Register a callback; returns an unsubscribe function."""
        if self.fired:
            raise SimulationError("cannot wait on an already-fired signal")
        self._waiters.append(callback)

        def unsubscribe() -> None:
            try:
                self._waiters.remove(callback)
            except ValueError:
                pass

        return unsubscribe


class WaitSignal(WaitRequest):
    """Wait request: suspend until ``signal`` fires or ``timeout`` elapses."""

    __slots__ = ("signal", "timeout")

    def __init__(self, signal: Signal, timeout: Optional[float] = None):
        if timeout is not None and timeout < 0:
            raise SimulationError(f"negative timeout: {timeout}")
        self.signal = signal
        self.timeout = timeout

    def _park(self, task: "Task", token: int) -> Any:
        signal = self.signal
        sim = task.sim
        if signal.fired:
            sim.schedule_now(task._step, token, signal.value)
            return PARKED
        task._pending_unsub = signal.add_waiter(
            lambda value: sim.schedule_now(task._step, token, value)
        )
        if self.timeout is not None:
            # Deadlines are overwhelmingly cancelled (the signal fires
            # first), so they park in the timer wheel.
            task._pending_timer = sim.schedule_timeout(
                self.timeout, task._step, token, TIMEOUT
            )
        return PARKED


class Task(WaitRequest):
    """Driver wrapping a generator into a simulated process.

    Created via :func:`spawn` (or ``Task(sim, gen)`` directly). The task
    starts on the next simulator event at the current time, never
    synchronously inside the spawner -- this keeps traces deterministic and
    independent of Python evaluation order.

    :meth:`_step` is the only place the generator is resumed. Every wake-up
    carries the ``token`` the task was parked with; a wake-up whose token
    is no longer current (a signal racing its timeout, a cancelled wait) is
    stale and ignored.
    """

    __slots__ = (
        "sim",
        "name",
        "done",
        "result",
        "exception",
        "cancelled",
        "_gen",
        "_done_signal",
        "_pending_timer",
        "_pending_unsub",
        "_wait_token",
        "_job",
    )

    def __init__(self, sim: Simulator, gen: Generator, name: str = "task"):
        if not hasattr(gen, "send"):
            raise SimulationError(f"Task requires a generator, got {type(gen)!r}")
        self.sim = sim
        self.name = name
        self.done = False
        self.cancelled = False
        self.result: Any = None
        self.exception: Optional[BaseException] = None
        self._gen = gen
        self._done_signal = Signal()
        self._pending_timer: Optional[Union[EventHandle, TimeoutHandle]] = None
        self._pending_unsub: Optional[Callable[[], None]] = None
        self._wait_token = 0
        #: The CPU job this task is queued for or running (see sim.cpu).
        self._job: Any = None
        sim.schedule_now(self._step, self._wait_token)

    # ------------------------------------------------------------------
    def _clear_wait(self) -> None:
        timer = self._pending_timer
        if timer is not None:
            self._pending_timer = None
            timer.cancel()
        if self._pending_unsub is not None:
            self._pending_unsub()
            self._pending_unsub = None

    def _step(
        self, token: int, value: Any = None, exc: Optional[BaseException] = None
    ) -> None:
        """Resume the generator with ``value``, or throw ``exc`` into it."""
        if token != self._wait_token or self.done:
            return  # stale wakeup (race between signal and timeout)
        token += 1
        self._wait_token = token
        self._clear_wait()
        if self._job is not None:
            # Thrown into mid-job (cancellation): hand the CPU back first.
            self._job.cpu._withdraw(self)
        gen = self._gen
        while True:
            try:
                if exc is None:
                    request = gen.send(value)
                else:
                    request = gen.throw(exc)
            except StopIteration as stop:
                self._finish(result=stop.value)
                return
            except TaskCancelled:
                self.cancelled = True
                self._finish(result=None)
                return
            except BaseException as err:  # noqa: BLE001 - recorded and re-raised at join
                self._finish(exception=err)
                if self.sim.strict:
                    raise
                self.sim.failures.append(err)
                return
            if not isinstance(request, WaitRequest):
                err = SimulationError(f"task {self.name!r} yielded {request!r}")
                self.sim.schedule_now(self._step, token, None, err)
                return
            value = request._park(self, token)
            if value is PARKED:
                return
            exc = None  # result already available: resume at once

    def _park(self, task: "Task", token: int) -> Any:
        """Join request: wake ``task`` once this task finishes."""

        def wake(_value: Any) -> None:
            if self.exception is not None:
                task.sim.schedule_now(task._step, token, None, self.exception)
            else:
                task.sim.schedule_now(task._step, token, self.result)

        if self.done:
            wake(None)
        else:
            task._pending_unsub = self._done_signal.add_waiter(wake)
        return PARKED

    def _finish(
        self, result: Any = None, exception: Optional[BaseException] = None
    ) -> None:
        self.done = True
        self.result = result
        self.exception = exception
        self._gen.close()
        self._done_signal.fire(result)

    # ------------------------------------------------------------------
    def cancel(self) -> None:
        """Cancel the task, throwing :class:`TaskCancelled` at its wait point.

        Idempotent; cancelling a finished task is a no-op. The cancellation
        is delivered as an immediate event, not synchronously.
        """
        if self.done:
            return
        self._clear_wait()
        self._wait_token += 1  # invalidate any in-flight wakeups
        self.sim.schedule_now(
            self._step, self._wait_token, None, TaskCancelled(self.name)
        )

    @property
    def done_signal(self) -> Signal:
        """Signal fired (with the task's result) when the task finishes."""
        return self._done_signal

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        state = "done" if self.done else "running"
        return f"Task({self.name!r}, {state})"


def spawn(sim: Simulator, gen: Generator, name: str = "task") -> Task:
    """Create and start a task from a generator."""
    return Task(sim, gen, name=name)


def wait_all(tasks: List[Task]) -> Generator:
    """Coroutine helper: join every task in ``tasks``; returns their results."""
    results = []
    for task in tasks:
        results.append((yield task))
    return results
