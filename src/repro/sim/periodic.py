"""Tick-driven execution on top of the event kernel.

Continuous-rate resources (network links, swap devices) are modeled with a
fixed timestep: every ``dt`` seconds the :class:`TickEngine` runs a
three-phase protocol over its registered :class:`TickParticipant` objects:

1. ``pre_tick(dt)``   — participants compute and register *demands*
   (bytes they would like to move this tick);
2. ``arbitrate(dt)``  — resource arbiters (network, devices) divide their
   capacity among the demands;
3. ``commit_tick(dt)``— participants consume their granted allocations,
   update state, and fire completion events.

Participants run in registration order within each phase, which keeps the
simulation deterministic. Arbiters are registered separately because they
must run *between* the two participant phases.
"""

from __future__ import annotations

from bisect import bisect_left, insort
from typing import Callable, Optional, Protocol, runtime_checkable

from repro.sim.kernel import Simulator

__all__ = ["PeriodicTask", "TickEngine", "TickParticipant", "Arbiter"]


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
    """Drives the three-phase tick protocol at a fixed timestep ``dt``."""

    def __init__(self, sim: Simulator, dt: float = 0.1):
        if dt <= 0:
            raise ValueError(f"dt must be positive, got {dt}")
        self.sim = sim
        self.dt = dt
        #: (order, seq, participant, runs_pre, runs_commit), kept sorted;
        #: ``seq`` is unique, so two entries never compare past it
        self._participants: list[
            tuple[int, int, TickParticipant, bool, bool]] = []
        self._arbiters: list[tuple[int, int, Arbiter]] = []
        #: id(registered object) -> its entry in the sorted list above
        self._participant_entries: dict[int, tuple] = {}
        self._arbiter_entries: dict[int, tuple] = {}
        #: flattened phase batches, rebuilt only when registration changes
        #: (at hundreds of hosts, per-tick list building dominated _tick)
        self._pre_batch: Optional[tuple[TickParticipant, ...]] = None
        self._commit_batch: Optional[tuple[TickParticipant, ...]] = None
        self._arbiter_batch: Optional[tuple[Arbiter, ...]] = None
        self._seq = 0
        self._started = False
        self.tick_index = 0

    def add_participant(self, p: TickParticipant, order: int = 0,
                        phases: tuple[str, ...] = ("pre", "commit")) -> None:
        """Register a participant; lower ``order`` runs first within each
        phase (ties broken by registration order). Resource adapters that
        must observe other participants' demands (e.g. VMD namespaces)
        register with a higher order.

        ``phases`` restricts which phases call the participant: a
        pure-adapter with an empty ``commit_tick`` registers with
        ``("pre",)`` so the commit loop never pays the call (hundreds of
        no-op method calls per tick at cluster scale).
        """
        if id(p) in self._participant_entries:
            raise ValueError(f"participant already registered: {p!r}")
        pre = "pre" in phases
        commit = "commit" in phases
        if not (pre or commit):
            raise ValueError(f"participant needs at least one phase: {p!r}")
        self._seq += 1
        entry = self._participant_entries[id(p)] = (
            order, self._seq, p, pre, commit)
        insort(self._participants, entry)
        self._pre_batch = None
        self._commit_batch = None

    def remove_participant(self, p: TickParticipant) -> None:
        entry = self._participant_entries.pop(id(p), None)
        if entry is None:
            raise ValueError(f"participant not registered: {p!r}")
        del self._participants[bisect_left(self._participants, entry)]
        self._pre_batch = None
        self._commit_batch = None

    def add_arbiter(self, a: Arbiter, order: int = 0) -> None:
        """Register an arbiter; lower ``order`` arbitrates first (the
        network must run before adapters that translate flow grants)."""
        if id(a) in self._arbiter_entries:
            raise ValueError(f"arbiter already registered: {a!r}")
        self._seq += 1
        entry = self._arbiter_entries[id(a)] = (order, self._seq, a)
        insort(self._arbiters, entry)
        self._arbiter_batch = None

    def remove_arbiter(self, a: Arbiter) -> None:
        entry = self._arbiter_entries.pop(id(a), None)
        if entry is None:
            raise ValueError(f"arbiter not registered: {a!r}")
        del self._arbiters[bisect_left(self._arbiters, entry)]
        self._arbiter_batch = None

    def start(self) -> None:
        """Schedule the first tick at ``now + dt``. Idempotent."""
        if self._started:
            return
        self._started = True
        self.sim.call_in(self.dt, self._tick)

    def _pre_snapshot(self) -> tuple[TickParticipant, ...]:
        batch = self._pre_batch
        if batch is None:
            batch = self._pre_batch = tuple(
                p for _, _, p, pre, _ in self._participants if pre)
        return batch

    def _commit_snapshot(self) -> tuple[TickParticipant, ...]:
        batch = self._commit_batch
        if batch is None:
            batch = self._commit_batch = tuple(
                p for _, _, p, _, commit in self._participants if commit)
        return batch

    def _tick(self) -> None:
        dt = self.dt
        # Snapshots are cached tuples; registration changes mid-phase
        # invalidate the cache, so the next phase sees the update (the
        # same semantics the per-phase list() copies provided).
        for p in self._pre_snapshot():
            p.pre_tick(dt)
        arbiters = self._arbiter_batch
        if arbiters is None:
            arbiters = self._arbiter_batch = tuple(
                a for _, _, a in self._arbiters)
        for a in arbiters:
            a.arbitrate(dt)
        for p in self._commit_snapshot():
            p.commit_tick(dt)
        self.tick_index += 1
        self.sim.call_in(dt, self._tick)
