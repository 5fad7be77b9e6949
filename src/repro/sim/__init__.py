"""Discrete-event simulation kernel.

This package provides the simulation substrate used by every other part of
the reproduction: a deterministic event queue with callbacks and one-shot
events, periodic tasks, the tick engine for rate-based resource models (whose
idle :class:`Parkable` objects leave its active set until woken), and
seeded RNG streams.

The kernel is deliberately dependency-free and fully deterministic: two runs
with the same seed produce identical event orderings.
"""

from repro.sim.kernel import Event, Simulator
from repro.sim.periodic import (
    Arbiter,
    Lane,
    Parkable,
    PeriodicTask,
    TickEngine,
    TickParticipant,
)
from repro.sim.rng import RngStreams

__all__ = [
    "Arbiter",
    "Event",
    "Lane",
    "Parkable",
    "PeriodicTask",
    "RngStreams",
    "Simulator",
    "TickEngine",
    "TickParticipant",
]
