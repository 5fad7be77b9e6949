"""Tick-driven execution on top of the event kernel.

Continuous-rate resources (network links, swap devices, host CPUs) are
modeled with a fixed timestep: every ``dt`` seconds the
:class:`TickEngine` runs a three-phase protocol over its registered
:class:`TickParticipant` and :class:`Arbiter` objects:

1. ``pre_tick(dt)``   — participants compute and register *demands*
   (bytes they would like to move this tick);
2. ``arbitrate(dt)``  — resource arbiters (network, devices) divide their
   capacity among the demands;
3. ``commit_tick(dt)``— participants consume their granted allocations,
   update state, and fire completion events.

Within each phase objects run in ``(order, registration seq)`` order,
which keeps the simulation deterministic. Arbiters are registered
separately because they must run *between* the two participant phases.

**The active set.** At cluster scale almost every memory manager, CPU
arbiter, swap device and VMD namespace is idle on any given tick, so
the engine only calls the *active* ones. A :class:`Parkable` object
that ran a phase with no work, and left every grant it writes at zero,
calls :meth:`Parkable.park`; at the end of that tick it leaves the
active set (in all its roles) unless something woke it first. Whatever
gives it work calls :meth:`Parkable.wake` — writing a positive
``demand`` on a :class:`Lane` does so for its arbiter. A wake-up that
arrives during a phase puts the object back in its sorted place: if
that place comes after the entry running now, the object runs in this
same phase; otherwise it starts with the next phase. Either way it runs
exactly the calls an always-tick engine would have made with work in
them, so the call order and every simulated output are unchanged.
Objects that are not :class:`Parkable` run every tick.

Registering or removing an object during a phase takes effect with the
next phase: each phase walks a copy of the active set taken when it
starts.
"""

from __future__ import annotations

from bisect import bisect_left, insort
from typing import Callable, Optional, Protocol, runtime_checkable

from repro.sim.kernel import Simulator

__all__ = ["Arbiter", "Lane", "Parkable", "PeriodicTask", "TickEngine",
           "TickParticipant"]


@runtime_checkable
class TickParticipant(Protocol):
    """Anything that takes part in the per-tick demand/commit protocol."""

    def pre_tick(self, dt: float) -> None:
        """Phase 1: compute and register resource demands for this tick."""

    def commit_tick(self, dt: float) -> None:
        """Phase 3: consume granted allocations and update state."""


@runtime_checkable
class Arbiter(Protocol):
    """A capacity arbiter that divides a resource among registered demands."""

    def arbitrate(self, dt: float) -> None:
        """Phase 2: grant allocations for this tick."""


class Parkable:
    """A tick object that leaves its engine's active set while idle.

    The object calls :meth:`park` from a phase method that found no
    work and left every grant it writes at zero; whatever gives it work
    calls :meth:`wake`. An object driven by hand (not registered with an
    engine) ignores both.
    """

    #: the engine this object is registered with
    _engine: Optional["TickEngine"] = None
    #: parked, or parking at the end of the current tick
    _idle = False

    def park(self) -> None:
        """Leave the active set at the end of this tick unless woken."""
        if not self._idle and self._engine is not None:
            self._idle = True
            self._engine._parking.append(self)

    def wake(self) -> None:
        """Work arrived: rejoin the active set (a no-op while active)."""
        if self._idle:
            self._idle = False
            self._engine._wake(self)


class Lane:
    """One requester's demand/grant slot on a :class:`Parkable` arbiter.

    ``demand`` is set (or accumulated) before arbitration; writing a
    positive value wakes the owning arbiter. ``granted`` is filled by the
    arbitration, which also consumes the demand.
    """

    __slots__ = ("name", "_demand", "granted", "total_granted", "active",
                 "_owner")

    def __init__(self, name: str):
        self.name = name
        self._demand = 0.0
        self.granted = 0.0
        self.total_granted = 0.0
        self.active = True
        #: the arbiter that owns this lane; close() flags it for
        #: compaction so arbitrate() need not scan for dead lanes
        self._owner = None

    @property
    def demand(self) -> float:
        return self._demand

    @demand.setter
    def demand(self, value: float) -> None:
        self._demand = value
        if value > 0:
            owner = self._owner
            if owner is not None and owner._idle:
                owner.wake()

    def close(self) -> None:
        self.active = False
        self._demand = 0.0
        # a consumer reading a just-closed lane in the same commit phase
        # must not re-consume last tick's grant
        self.granted = 0.0
        owner = self._owner
        if owner is not None:
            owner._needs_compact = True


class PeriodicTask:
    """Runs ``fn(now)`` every ``interval`` seconds until cancelled.

    The interval may be changed on the fly (used by the WSS tracker, which
    adjusts every 2 s while converging and every 30 s once stable).
    """

    def __init__(self, sim: Simulator, interval: float,
                 fn: Callable[[float], None], start_at: Optional[float] = None):
        if interval <= 0:
            raise ValueError(f"interval must be positive, got {interval}")
        self.sim = sim
        self.interval = interval
        self.fn = fn
        self._cancelled = False
        first = sim.now + interval if start_at is None else start_at
        sim.call_at(first, self._run)

    def cancel(self) -> None:
        self._cancelled = True

    def set_interval(self, interval: float) -> None:
        """Change the period; takes effect after the next firing."""
        if interval <= 0:
            raise ValueError(f"interval must be positive, got {interval}")
        self.interval = interval

    def _run(self) -> None:
        if self._cancelled:
            return
        self.fn(self.sim.now)
        if not self._cancelled:
            self.sim.call_in(self.interval, self._run)


class TickEngine:
    """Drives the three-phase tick protocol at a fixed timestep ``dt``
    over the active set of its registered objects."""

    def __init__(self, sim: Simulator, dt: float = 0.1):
        if dt <= 0:
            raise ValueError(f"dt must be positive, got {dt}")
        self.sim = sim
        self.dt = dt
        #: registered objects per role: id(object) -> its entry
        #: ``(order, seq, object)``; ``seq`` is unique, so two entries
        #: never compare past it
        self._participants: dict[int, tuple] = {}
        self._arbiters: dict[int, tuple] = {}
        #: the active set: the entries of unparked objects, kept sorted
        self._active_participants: list[tuple] = []
        self._active_arbiters: list[tuple] = []
        #: id(object) -> parked object
        self._parked: dict[int, Parkable] = {}
        #: objects that asked to park this tick
        self._parking: list[Parkable] = []
        #: the phase running now: the copy of the active list it walks,
        #: that list, and the entry being run
        self._batch: Optional[list] = None
        self._batch_of: Optional[list] = None
        self._running: Optional[tuple] = None
        self._seq = 0
        self._started = False
        #: ticks run so far (every tick counts, whatever is active)
        self.tick_index = 0

    def _roles(self):
        return ((self._participants, self._active_participants),
                (self._arbiters, self._active_arbiters))

    def _add(self, obj, order: int, registry: dict, active: list,
             what: str) -> None:
        key = id(obj)
        if key in registry:
            raise ValueError(f"{what} already registered: {obj!r}")
        self._seq += 1
        entry = registry[key] = (order, self._seq, obj)
        if isinstance(obj, Parkable):
            obj._engine = self
        if key not in self._parked:  # a parked object's new role waits
            insort(active, entry)    # for its wake-up with the others

    def _remove(self, obj, registry: dict, active: list, what: str) -> None:
        key = id(obj)
        entry = registry.pop(key, None)
        if entry is None:
            raise ValueError(f"{what} not registered: {obj!r}")
        if key not in self._parked:
            del active[bisect_left(active, entry)]
        if key not in self._participants and key not in self._arbiters:
            self._parked.pop(key, None)
            if isinstance(obj, Parkable):
                obj._engine = None
                obj._idle = False

    def add_participant(self, p: TickParticipant, order: int = 0) -> None:
        """Register a participant; lower ``order`` runs first within each
        phase (ties broken by registration order). Resource adapters that
        must observe other participants' demands (e.g. VMD namespaces)
        register with a higher order."""
        self._add(p, order, self._participants, self._active_participants,
                  "participant")

    def remove_participant(self, p: TickParticipant) -> None:
        self._remove(p, self._participants, self._active_participants,
                     "participant")

    def add_arbiter(self, a: Arbiter, order: int = 0) -> None:
        """Register an arbiter; lower ``order`` arbitrates first (the
        network must run before adapters that translate flow grants)."""
        self._add(a, order, self._arbiters, self._active_arbiters, "arbiter")

    def remove_arbiter(self, a: Arbiter) -> None:
        self._remove(a, self._arbiters, self._active_arbiters, "arbiter")

    def start(self) -> None:
        """Schedule the first tick at ``now + dt``. Idempotent."""
        if self._started:
            return
        self._started = True
        self.sim.call_in(self.dt, self._tick)

    # -- the active set -----------------------------------------------------
    def _wake(self, obj: Parkable) -> None:
        """Put a parked ``obj`` back in the active set (called by
        :meth:`Parkable.wake`; one only about to park just stays)."""
        key = id(obj)
        if self._parked.pop(key, None) is None:
            return
        for registry, active in self._roles():
            entry = registry.get(key)
            if entry is not None:
                insort(active, entry)
                if active is self._batch_of and entry > self._running:
                    insort(self._batch, entry)

    def _settle(self) -> None:
        """End of tick: park the objects that asked to, unless woken."""
        parking, self._parking = self._parking, []
        for obj in parking:
            key = id(obj)
            if not obj._idle or obj._engine is not self or key in self._parked:
                continue
            self._parked[key] = obj
            for registry, active in self._roles():
                entry = registry.get(key)
                if entry is not None:
                    del active[bisect_left(active, entry)]

    def _phase(self, active: list) -> list:
        self._batch_of = active
        self._batch = batch = active[:]
        return batch

    def _tick(self) -> None:
        dt = self.dt
        for entry in self._phase(self._active_participants):
            self._running = entry
            entry[2].pre_tick(dt)
        for entry in self._phase(self._active_arbiters):
            self._running = entry
            entry[2].arbitrate(dt)
        for entry in self._phase(self._active_participants):
            self._running = entry
            entry[2].commit_tick(dt)
        self._batch = self._batch_of = self._running = None
        self.tick_index += 1
        if self._parking:
            self._settle()
        self.sim.call_in(dt, self._tick)
