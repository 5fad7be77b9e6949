"""Core discrete-event simulation kernel.

The design follows the classic event-list pattern: a priority queue of
``(time, priority, sequence, event)`` entries, popped in order. Two
programming models sit on top of it:

* **callbacks** — ``Simulator.call_at`` / ``Simulator.call_in`` schedule a
  plain function;
* **processes** — Python generators that ``yield`` waitables
  (:class:`Timeout`, :class:`Event`, or another :class:`Process`) and are
  resumed when the waitable fires, in the style of SimPy.

Determinism: ties in time are broken by ``(priority, sequence)`` where the
sequence number is the order of scheduling, so identical programs produce
identical executions.
"""

from __future__ import annotations

import heapq
import math
from typing import Any, Callable, Generator, Iterable, Optional

__all__ = [
    "Event",
    "Interrupt",
    "Process",
    "Simulator",
    "SimulationError",
    "Timeout",
]


class SimulationError(RuntimeError):
    """Raised for kernel-level misuse (e.g. scheduling in the past)."""


class Interrupt(Exception):
    """Thrown into a process by :meth:`Process.interrupt`.

    The ``cause`` attribute carries the value passed to ``interrupt``.
    """

    def __init__(self, cause: Any = None):
        super().__init__(cause)
        self.cause = cause


class Event:
    """A one-shot occurrence that callbacks and processes can wait on.

    An event starts *pending*; :meth:`succeed` (or :meth:`fail`) triggers it
    exactly once, after which its callbacks run at the current simulation
    time. Waiting on an already-triggered event resumes the waiter
    immediately (at the current time, not retroactively).
    """

    __slots__ = ("sim", "_callbacks", "_triggered", "_value", "_is_error", "name")

    def __init__(self, sim: "Simulator", name: str = ""):
        self.sim = sim
        self.name = name
        self._callbacks: list[Callable[[Event], None]] = []
        self._triggered = False
        self._value: Any = None
        self._is_error = False

    # -- state ------------------------------------------------------------
    @property
    def triggered(self) -> bool:
        """True once the event has fired (successfully or with an error)."""
        return self._triggered

    @property
    def value(self) -> Any:
        """The value passed to :meth:`succeed` / :meth:`fail`."""
        return self._value

    @property
    def failed(self) -> bool:
        return self._triggered and self._is_error

    # -- triggering -------------------------------------------------------
    def succeed(self, value: Any = None) -> "Event":
        """Fire the event with ``value``; runs callbacks via the event loop."""
        if self._triggered:
            raise SimulationError(f"event {self.name!r} already triggered")
        self._triggered = True
        self._value = value
        self.sim._schedule_event(self)
        return self

    def fail(self, exc: BaseException) -> "Event":
        """Fire the event with an exception; waiters see it raised."""
        if self._triggered:
            raise SimulationError(f"event {self.name!r} already triggered")
        self._triggered = True
        self._value = exc
        self._is_error = True
        self.sim._schedule_event(self)
        return self

    # -- waiting ----------------------------------------------------------
    def add_callback(self, fn: Callable[["Event"], None]) -> None:
        """Run ``fn(event)`` when the event fires (immediately if already fired)."""
        if self._triggered and self._callbacks is None:
            # already dispatched: run on next loop turn for determinism
            self.sim.call_in(0.0, fn, self)
        else:
            self._callbacks.append(fn)

    def _dispatch(self) -> None:
        callbacks, self._callbacks = self._callbacks, None  # type: ignore[assignment]
        for fn in callbacks:
            fn(self)

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        state = "triggered" if self._triggered else "pending"
        return f"<Event {self.name!r} {state}>"


class Timeout(Event):
    """An event that fires automatically ``delay`` time units after creation."""

    __slots__ = ("delay",)

    def __init__(self, sim: "Simulator", delay: float, value: Any = None):
        if delay < 0:
            raise SimulationError(f"negative timeout: {delay}")
        super().__init__(sim, name=f"timeout({delay})")
        self.delay = delay
        sim.call_in(delay, self._fire, value)

    def _fire(self, value: Any) -> None:
        if not self._triggered:  # pragma: no branch - fires exactly once
            self.succeed(value)


class Process(Event):
    """A generator-based coroutine driven by the simulator.

    The generator may ``yield``:

    * a :class:`Timeout` — resume after the delay;
    * an :class:`Event` — resume when it triggers (the yielded expression
      evaluates to the event's value; a failed event raises);
    * another :class:`Process` — resume when it finishes (join).

    A process is itself an :class:`Event` that fires with the generator's
    return value, so processes can be joined or waited on by callbacks.
    """

    __slots__ = ("_gen", "_target", "_interrupts")

    def __init__(self, sim: "Simulator", gen: Generator[Any, Any, Any], name: str = ""):
        Event.__init__(self, sim, name=name or getattr(gen, "__name__", "process"))
        self._gen = gen
        self._target: Optional[Event] = None
        self._interrupts: list[Interrupt] = []
        # Start the process on the next loop turn at the current time.
        sim.call_in(0.0, self._resume, None, None)

    def interrupt(self, cause: Any = None) -> None:
        """Throw :class:`Interrupt` into the process at the current time."""
        if self._triggered:
            return
        self._interrupts.append(Interrupt(cause))
        self.sim.call_in(0.0, self._deliver_interrupts)

    def _deliver_interrupts(self) -> None:
        if self._triggered or not self._interrupts:
            return
        exc = self._interrupts.pop(0)
        # Detach from whatever we were waiting on; the stale callback is
        # ignored because _target no longer matches.
        self._target = None
        self._step(exc=exc)

    def _resume(self, event: Optional[Event], _unused: Any) -> None:
        self._step(value=event.value if event is not None else None,
                   exc=event.value if event is not None and event.failed else None)

    def _on_target(self, event: Event) -> None:
        if self._target is not event:
            return  # interrupted away from this target; ignore stale wakeup
        self._target = None
        if event.failed:
            self._step(exc=event.value)
        else:
            self._step(value=event.value)

    def _step(self, value: Any = None, exc: Optional[BaseException] = None) -> None:
        if self._triggered:
            return
        try:
            if exc is not None:
                target = self._gen.throw(exc)
            else:
                target = self._gen.send(value)
        except StopIteration as stop:
            self.succeed(stop.value)
            return
        except Interrupt:
            # Interrupt escaped the generator: treat as a silent stop.
            self.succeed(None)
            return
        if not isinstance(target, Event):
            self._gen.close()
            self.fail(SimulationError(
                f"process {self.name!r} yielded non-event: {target!r}"))
            return
        self._target = target
        target.add_callback(self._on_target)


class Simulator:
    """The event loop: clock + priority queue + factory helpers."""

    def __init__(self) -> None:
        self._now = 0.0
        self._queue: list[tuple[float, int, int, Any]] = []
        self._seq = 0
        self._running = False

    # -- clock ------------------------------------------------------------
    @property
    def now(self) -> float:
        """Current simulation time (seconds by convention)."""
        return self._now

    # -- scheduling primitives ---------------------------------------------
    def _push(self, time: float, priority: int, item: Any) -> None:
        if time < self._now - 1e-12:
            raise SimulationError(
                f"cannot schedule at {time} < now {self._now}")
        self._seq += 1
        heapq.heappush(self._queue, (time, priority, self._seq, item))

    def _schedule_event(self, event: Event, delay: float = 0.0) -> None:
        self._push(self._now + delay, 1, event)

    def call_at(self, time: float, fn: Callable, *args: Any) -> None:
        """Schedule ``fn(*args)`` at absolute simulation time ``time``."""
        self._push(time, 0, (fn, args))

    def call_in(self, delay: float, fn: Callable, *args: Any) -> None:
        """Schedule ``fn(*args)`` after ``delay`` time units."""
        self.call_at(self._now + delay, fn, *args)

    # -- factories ----------------------------------------------------------
    def event(self, name: str = "") -> Event:
        return Event(self, name)

    def timeout(self, delay: float, value: Any = None) -> Timeout:
        return Timeout(self, delay, value)

    def process(self, gen: Generator[Any, Any, Any], name: str = "") -> Process:
        """Wrap a generator into a running :class:`Process`."""
        return Process(self, gen, name=name)

    def all_of(self, events: Iterable[Event]) -> Event:
        """An event that fires when every input event has fired.

        A failed input fails the combined event with the same exception
        (first failure wins) so waiters see it *raised*, not handed back
        as a value.
        """
        events = list(events)
        done = self.event("all_of")
        remaining = [len(events)]
        if not events:
            done.succeed([])
            return done
        values: list[Any] = [None] * len(events)

        def make_cb(i: int) -> Callable[[Event], None]:
            def cb(ev: Event) -> None:
                if done.triggered:
                    return  # an earlier input already failed the join
                if ev.failed:
                    done.fail(ev.value)
                    return
                values[i] = ev.value
                remaining[0] -= 1
                if remaining[0] == 0:
                    done.succeed(list(values))
            return cb

        for i, ev in enumerate(events):
            ev.add_callback(make_cb(i))
        return done

    def any_of(self, events: Iterable[Event]) -> Event:
        """An event that fires when the first input event fires.

        If the first input to fire failed, the combined event fails with
        the same exception.
        """
        events = list(events)
        done = self.event("any_of")
        if not events:
            done.succeed(None)
            return done

        def cb(ev: Event) -> None:
            if done.triggered:
                return
            if ev.failed:
                done.fail(ev.value)
            else:
                done.succeed(ev.value)

        for ev in events:
            ev.add_callback(cb)
        return done

    # -- execution ----------------------------------------------------------
    def step(self) -> float:
        """Execute the next queue entry; returns its time."""
        time, _prio, _seq, item = heapq.heappop(self._queue)
        self._now = time
        if isinstance(item, Event):
            item._dispatch()
        else:
            fn, args = item
            fn(*args)
        return time

    def peek(self) -> float:
        """Time of the next entry, or ``inf`` if the queue is empty."""
        return self._queue[0][0] if self._queue else math.inf

    def run(self, until: Optional[float] = None) -> None:
        """Run until the queue is empty or the clock would pass ``until``.

        When ``until`` is given, the clock is left exactly at ``until``
        (events scheduled at precisely ``until`` do run).
        """
        if self._running:
            raise SimulationError("run() is not reentrant")
        self._running = True
        try:
            if until is None:
                while self._queue:
                    self.step()
            else:
                if until < self._now:
                    raise SimulationError(
                        f"until {until} is in the past (now={self._now})")
                while self._queue and self._queue[0][0] <= until:
                    self.step()
                self._now = until
        finally:
            self._running = False

    def run_until_event(self, event: Event, limit: float = math.inf) -> Any:
        """Run until ``event`` triggers; returns its value.

        Raises :class:`SimulationError` if the queue drains or ``limit`` is
        reached first.
        """
        while not event.triggered:
            if not self._queue:
                raise SimulationError(
                    f"queue drained before event {event.name!r} fired")
            if self._queue[0][0] > limit:
                raise SimulationError(
                    f"time limit {limit} reached before {event.name!r} fired")
            self.step()
        if event.failed:
            raise event.value
        return event.value
