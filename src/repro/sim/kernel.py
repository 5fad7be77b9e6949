"""Core discrete-event simulation kernel.

The design follows the classic event-list pattern: a priority queue of
``(time, priority, sequence, event)`` entries, popped in order. One
programming model sits on top of it: callbacks. ``Simulator.call_at`` /
``Simulator.call_in`` schedule a plain function, and an :class:`Event`
runs the callbacks added with :meth:`Event.add_callback` when it
succeeds or fails.

Determinism: ties in time are broken by ``(priority, sequence)`` where the
sequence number is the order of scheduling, so identical programs produce
identical executions.
"""

from __future__ import annotations

import heapq
import math
from typing import Any, Callable, Optional

__all__ = ["Event", "Simulator", "SimulationError"]


class SimulationError(RuntimeError):
    """Raised for kernel-level misuse (e.g. scheduling in the past)."""


class Event:
    """A one-shot occurrence that callbacks can wait on.

    An event starts *pending*; :meth:`succeed` (or :meth:`fail`) triggers it
    exactly once, after which its callbacks run at the current simulation
    time. A callback added to an already-triggered event runs on the next
    loop turn (at the current time, not retroactively).
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
        """Fire the event with an exception: callbacks see ``failed`` and
        the exception as ``value``; :meth:`Simulator.run_until_event`
        raises it."""
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

    def _schedule_event(self, event: Event) -> None:
        self._push(self._now, 1, event)

    def call_at(self, time: float, fn: Callable, *args: Any) -> None:
        """Schedule ``fn(*args)`` at absolute simulation time ``time``."""
        self._push(time, 0, (fn, args))

    def call_in(self, delay: float, fn: Callable, *args: Any) -> None:
        """Schedule ``fn(*args)`` after ``delay`` time units."""
        self.call_at(self._now + delay, fn, *args)

    # -- factory ------------------------------------------------------------
    def event(self, name: str = "") -> Event:
        return Event(self, name)

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
