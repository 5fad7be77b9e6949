"""Where a datacenter run's wall time goes, by tick phase.

The tick protocol has three phases: participants' ``pre_tick``, the
arbiters' ``arbitrate`` and participants' ``commit_tick``. This bench
times them from outside the program, the way ``bench/layers.py`` does:
it replaces the phase methods of every class the tick engine registers
with timing wrappers for the duration of the test. A phase method
called from inside another (a subclass calling ``super()``) is merged
into the outer call. The run is the datacenter rebalance scenario at
its default size (3 racks × 4 hosts) for 8 simulated seconds; the
commit phase must stay at or under 55 % of the run's wall time (the
median of a few runs, since one run takes a few tens of milliseconds).
"""

from __future__ import annotations

import statistics
import time

import pytest

from repro.experiments.datacenter import (
    DatacenterConfig,
    honeypot_schedule,
    make_datacenter,
)
from repro.sim.periodic import TickEngine

CLOCK = time.perf_counter
SIM_S = 8.0
RUNS = 5
MAX_COMMIT_SHARE = 0.55
PHASES = {"pre_tick": "tick.pre", "arbitrate": "arbitrate",
          "commit_tick": "tick.commit"}


class PhaseClock:
    """Wall seconds per tick phase, summed over every registered class."""

    def __init__(self, monkeypatch):
        self.seconds = dict.fromkeys(PHASES.values(), 0.0)
        self._mp = monkeypatch
        self._wrapped: set = set()
        self._depth = 0
        add_participant = TickEngine.add_participant
        add_arbiter = TickEngine.add_arbiter

        def participant(engine, p, *args, **kwargs):
            self._wrap(type(p), "pre_tick")
            self._wrap(type(p), "commit_tick")
            return add_participant(engine, p, *args, **kwargs)

        def arbiter(engine, a, *args, **kwargs):
            self._wrap(type(a), "arbitrate")
            return add_arbiter(engine, a, *args, **kwargs)

        monkeypatch.setattr(TickEngine, "add_participant", participant)
        monkeypatch.setattr(TickEngine, "add_arbiter", arbiter)

    def _wrap(self, cls: type, method: str) -> None:
        owner = next(c for c in cls.__mro__ if method in vars(c))
        if (owner, method) in self._wrapped:
            return
        self._wrapped.add((owner, method))
        fn = vars(owner)[method]
        seconds = self.seconds
        phase = PHASES[method]

        def timed(*args, **kwargs):
            if self._depth:
                return fn(*args, **kwargs)
            self._depth += 1
            t0 = CLOCK()
            try:
                return fn(*args, **kwargs)
            finally:
                seconds[phase] += CLOCK() - t0
                self._depth -= 1

        self._mp.setattr(owner, method, timed)

    def run(self) -> dict[str, float]:
        """One timed run: each phase's share of its wall time."""
        dc = make_datacenter(honeypot_schedule(), DatacenterConfig())
        for phase in self.seconds:
            self.seconds[phase] = 0.0
        t0 = CLOCK()
        dc.run(until=SIM_S)
        wall = CLOCK() - t0
        return {phase: s / wall for phase, s in self.seconds.items()}


@pytest.fixture
def shares(monkeypatch):
    clock = PhaseClock(monkeypatch)
    runs = [clock.run() for _ in range(RUNS)]
    return {phase: statistics.median(r[phase] for r in runs)
            for phase in PHASES.values()}


def test_commit_phase_share_bounded(shares, emit):
    emit("", f"tick phases, datacenter 3x4 hosts, {SIM_S:g} sim-s "
             f"(median share of wall time over {RUNS} runs):",
         *(f"  {phase:<12s} {share:6.1%}" for phase, share in shares.items()))
    assert shares["tick.commit"] <= MAX_COMMIT_SHARE, shares
