"""Sim-clock tracing: hierarchical spans and instant events.

The :class:`Tracer` timestamps every event with the *simulation* clock,
never the wall clock, so a trace is a pure function of the scenario and
seed — two same-seed runs produce byte-identical exports (the
determinism guarantee DESIGN.md §8 documents). Components are handed a
tracer explicitly; the default everywhere is the module-level
:data:`NULL_TRACER`, whose methods are no-ops and whose ``enabled``
flag lets hot paths skip even argument construction::

    if tracer.enabled:
        tracer.instant("planner", "plan", cat="planner",
                       args={"vm": vm, "dst": dst})

Event vocabulary (mirroring the Chrome trace-event phases the exporter
emits):

* ``begin``/``end`` — a synchronous span on a *track* (a named
  timeline: one per VM, host, or subsystem). Spans on one track nest
  strictly (LIFO), like a call stack;
* ``instant`` — a point event (a switchover, a planner verdict);
* ``async_begin``/``async_end`` — a span that may overlap others on
  its track (concurrent transfer jobs, fault windows). Paired by id.

Sampled values are not trace events: a ``(t, v)`` history lives in a
:class:`~repro.metrics.TimeSeries` — a recorder series or a
:class:`~repro.telemetry.Gauge` — and is recorded once.
"""

from __future__ import annotations

from contextlib import contextmanager
from dataclasses import dataclass, field
from typing import Callable, Iterator, Optional

__all__ = ["NULL_TRACER", "NullTracer", "Span", "TraceEvent", "Tracer"]


@dataclass
class TraceEvent:
    """One trace record. ``ph`` follows the Chrome trace-event phases:
    B/E (span begin/end), i (instant), b/e (async span)."""

    __slots__ = ("ph", "t", "track", "name", "cat", "args", "id")

    ph: str
    t: float
    track: str
    name: str
    cat: str
    args: Optional[dict]
    id: Optional[int]


@dataclass(frozen=True)
class Span:
    """A completed span reconstructed from a trace (begin/end paired)."""

    track: str
    name: str
    cat: str
    t0: float
    t1: float
    args: dict = field(default_factory=dict)

    @property
    def duration(self) -> float:
        return self.t1 - self.t0


class NullTracer:
    """The zero-overhead default: every method is a no-op.

    Instrumentation sites test :attr:`enabled` before building event
    arguments, so a world without a tracer pays one attribute check.
    """

    enabled = False

    def bind_clock(self, clock: Callable[[], float]) -> None:
        pass

    def begin(self, track: str, name: str, cat: str = "",
              args: Optional[dict] = None) -> None:
        pass

    def end(self, track: str, args: Optional[dict] = None) -> None:
        pass

    def instant(self, track: str, name: str, cat: str = "",
                args: Optional[dict] = None) -> None:
        pass

    def async_begin(self, track: str, name: str, cat: str = "",
                    args: Optional[dict] = None) -> int:
        return 0

    def async_end(self, span_id: int,
                  args: Optional[dict] = None) -> None:
        pass

    @contextmanager
    def span(self, track: str, name: str, cat: str = "",
             args: Optional[dict] = None) -> Iterator[None]:
        yield

    def finish(self) -> None:
        pass


#: the shared no-op tracer every component defaults to
NULL_TRACER = NullTracer()


class Tracer(NullTracer):
    """Collects :class:`TraceEvent` records stamped with the sim clock.

    ``clock`` is a zero-argument callable returning the current
    simulation time in seconds (``lambda: world.sim.now``); a
    :class:`~repro.cluster.World` binds it automatically when the
    tracer is passed to its constructor.
    """

    enabled = True

    def __init__(self, clock: Optional[Callable[[], float]] = None):
        self.clock: Callable[[], float] = clock or (lambda: 0.0)
        self.events: list[TraceEvent] = []
        #: per-track stack of open synchronous span names
        self._stacks: dict[str, list[str]] = {}
        #: open async spans: id -> (track, name, cat)
        self._open_async: dict[int, tuple[str, str, str]] = {}
        self._next_async_id = 0

    def bind_clock(self, clock: Callable[[], float]) -> None:
        self.clock = clock

    # -- synchronous spans ----------------------------------------------------
    def begin(self, track: str, name: str, cat: str = "",
              args: Optional[dict] = None) -> None:
        self.events.append(
            TraceEvent("B", self.clock(), track, name, cat, args, None))
        self._stacks.setdefault(track, []).append(name)

    def end(self, track: str, args: Optional[dict] = None) -> None:
        stack = self._stacks.get(track)
        if not stack:
            raise ValueError(f"end() with no open span on track {track!r}")
        name = stack.pop()
        self.events.append(
            TraceEvent("E", self.clock(), track, name, "", args, None))

    @contextmanager
    def span(self, track: str, name: str, cat: str = "",
             args: Optional[dict] = None) -> Iterator[None]:
        self.begin(track, name, cat, args)
        try:
            yield
        finally:
            self.end(track)

    def open_depth(self, track: str) -> int:
        return len(self._stacks.get(track, ()))

    # -- instants -------------------------------------------------------------
    def instant(self, track: str, name: str, cat: str = "",
                args: Optional[dict] = None) -> None:
        self.events.append(
            TraceEvent("i", self.clock(), track, name, cat, args, None))

    # -- async (overlapping) spans --------------------------------------------
    def async_begin(self, track: str, name: str, cat: str = "",
                    args: Optional[dict] = None) -> int:
        self._next_async_id += 1
        aid = self._next_async_id
        self._open_async[aid] = (track, name, cat)
        self.events.append(
            TraceEvent("b", self.clock(), track, name, cat, args, aid))
        return aid

    def async_end(self, span_id: int,
                  args: Optional[dict] = None) -> None:
        """Close an async span; ids not open (or 0) are ignored, so
        teardown paths may end unconditionally."""
        info = self._open_async.pop(span_id, None)
        if info is None:
            return
        track, name, cat = info
        self.events.append(
            TraceEvent("e", self.clock(), track, name, cat, args, span_id))

    # -- completion -----------------------------------------------------------
    def finish(self) -> None:
        """Close every still-open span at the current clock so exports
        are well-formed (call once, after the run)."""
        for track in sorted(self._stacks):
            while self._stacks[track]:
                self.end(track, args={"unclosed": True})
        for aid in sorted(self._open_async):
            self.async_end(aid, args={"unclosed": True})

    def __len__(self) -> int:
        return len(self.events)
