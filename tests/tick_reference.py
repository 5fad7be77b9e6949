"""Always-tick reference engine: the oracle for the active-set engine.

:class:`AlwaysTickEngine` is the tick protocol with no active set:
every registered object runs every phase of every tick, in
``(order, registration seq)`` order, and a registration made during a
phase takes effect with the next phase. Parkable objects registered
with it get it as their engine (the memory manager's LRU clock reads
``tick_index``), but their park requests and wake-ups change nothing.

Kept out of ``src/`` on purpose: it is what
:class:`repro.sim.TickEngine` must agree with, call for call on the
calls that do work, and state for state after every tick.
"""

from __future__ import annotations

from repro.sim.periodic import Parkable


class AlwaysTickEngine:
    """Drop-in :class:`~repro.sim.TickEngine` that never parks."""

    def __init__(self, sim, dt: float = 0.1):
        if dt <= 0:
            raise ValueError(f"dt must be positive, got {dt}")
        self.sim = sim
        self.dt = dt
        self._participants: dict[int, tuple] = {}
        self._arbiters: dict[int, tuple] = {}
        self._parking: list = []
        self._seq = 0
        self._started = False
        self.tick_index = 0

    def _add(self, obj, order, registry):
        if id(obj) in registry:
            raise ValueError(f"already registered: {obj!r}")
        self._seq += 1
        registry[id(obj)] = (order, self._seq, obj)
        if isinstance(obj, Parkable):
            obj._engine = self

    def add_participant(self, p, order: int = 0) -> None:
        self._add(p, order, self._participants)

    def add_arbiter(self, a, order: int = 0) -> None:
        self._add(a, order, self._arbiters)

    def remove_participant(self, p) -> None:
        if self._participants.pop(id(p), None) is None:
            raise ValueError(f"participant not registered: {p!r}")

    def remove_arbiter(self, a) -> None:
        if self._arbiters.pop(id(a), None) is None:
            raise ValueError(f"arbiter not registered: {a!r}")

    def _wake(self, obj) -> None:
        pass

    def start(self) -> None:
        if not self._started:
            self._started = True
            self.sim.call_in(self.dt, self._tick)

    @staticmethod
    def _snapshot(registry):
        return [obj for _, _, obj in sorted(registry.values())]

    def _tick(self) -> None:
        dt = self.dt
        for p in self._snapshot(self._participants):
            p.pre_tick(dt)
        for a in self._snapshot(self._arbiters):
            a.arbitrate(dt)
        for p in self._snapshot(self._participants):
            p.commit_tick(dt)
        self.tick_index += 1
        for obj in self._parking:
            obj._idle = False
        self._parking.clear()
        self.sim.call_in(dt, self._tick)
