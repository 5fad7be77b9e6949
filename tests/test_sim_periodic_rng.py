"""Tests for the tick engine, periodic tasks, and RNG streams."""

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.sim import Parkable, PeriodicTask, RngStreams, Simulator, TickEngine
from tests.tick_reference import AlwaysTickEngine


class Recorder:
    """Minimal TickParticipant that logs phase invocations."""

    def __init__(self, log, name):
        self.log = log
        self.name = name

    def pre_tick(self, dt):
        self.log.append(("pre", self.name))

    def commit_tick(self, dt):
        self.log.append(("commit", self.name))


class NullArbiter:
    def __init__(self, log):
        self.log = log

    def arbitrate(self, dt):
        self.log.append(("arb", "a"))


def test_tick_engine_phase_ordering():
    sim = Simulator()
    eng = TickEngine(sim, dt=1.0)
    log = []
    eng.add_participant(Recorder(log, "p1"))
    eng.add_participant(Recorder(log, "p2"))
    eng.add_arbiter(NullArbiter(log))
    eng.start()
    sim.run(until=1.0)
    assert log == [("pre", "p1"), ("pre", "p2"), ("arb", "a"),
                   ("commit", "p1"), ("commit", "p2")]
    assert eng.tick_index == 1


def test_tick_engine_repeats():
    sim = Simulator()
    eng = TickEngine(sim, dt=0.5)
    ticks = []

    class P:
        def pre_tick(self, dt):
            pass

        def commit_tick(self, dt):
            ticks.append(sim.now)

    eng.add_participant(P())
    eng.start()
    sim.run(until=2.0)
    assert ticks == [0.5, 1.0, 1.5, 2.0]


def test_tick_engine_duplicate_participant_rejected():
    sim = Simulator()
    eng = TickEngine(sim, dt=1.0)
    p = Recorder([], "p")
    eng.add_participant(p)
    with pytest.raises(ValueError):
        eng.add_participant(p)


@settings(max_examples=200, deadline=None)
@given(st.lists(st.tuples(st.booleans(), st.booleans(), st.integers(0, 5),
                          st.integers(-2, 2)), max_size=60))
def test_tick_engine_registration_order_matches_a_full_sort(ops):
    """After any add/remove sequence the engine runs participants and
    arbiters in ``(order, registration seq)`` order — what a full sort
    after every registration gives — and duplicates still raise."""
    sim = Simulator()
    eng = TickEngine(sim, dt=1.0)
    log = []
    objs = {True: [NullArbiter(log) for _ in range(6)],
            False: [Recorder(log, f"p{i}") for i in range(6)]}
    add = {True: eng.add_arbiter, False: eng.add_participant}
    remove = {True: eng.remove_arbiter, False: eng.remove_participant}
    keys = {True: {}, False: {}}    # index -> (order, seq)
    for seq, (is_arb, is_add, i, order) in enumerate(ops):
        if is_add and i not in keys[is_arb]:
            add[is_arb](objs[is_arb][i], order=order)
            keys[is_arb][i] = (order, seq)
        elif not is_add and i in keys[is_arb]:
            remove[is_arb](objs[is_arb][i])
            del keys[is_arb][i]

    def expected(is_arb):
        ranked = sorted(keys[is_arb], key=keys[is_arb].get)
        return [objs[is_arb][i] for i in ranked]

    assert [p for _, _, p in eng._active_participants] == expected(False)
    assert [a for _, _, a in eng._active_arbiters] == expected(True)
    assert [p for _, _, p in sorted(eng._participants.values())] \
        == expected(False)
    assert [a for _, _, a in sorted(eng._arbiters.values())] \
        == expected(True)
    for is_arb in (False, True):
        for i in range(6):
            with pytest.raises(ValueError):
                if i in keys[is_arb]:
                    add[is_arb](objs[is_arb][i])
                else:
                    remove[is_arb](objs[is_arb][i])
    # the order the structure holds is the order a tick runs
    eng.start()
    sim.run(until=1.0)
    names = [p.name for p in expected(False)]
    assert log == [("pre", n) for n in names] \
        + [("arb", "a")] * len(keys[True]) + [("commit", n) for n in names]


PHASES = ("pre", "arb", "commit")


class Probe(Parkable):
    """Does one unit of work per call while it has any. A work call is
    logged and then runs the probe's script for that phase (give another
    probe work, or toggle its registration); a call without work parks
    the probe, unless it is ``sticky``."""

    def __init__(self, env, name, script, sticky):
        self.env = env
        self.name = name
        self.script = script
        self.sticky = sticky
        self.pending = 0

    def _call(self, phase):
        if self.pending <= 0:
            if not self.sticky:
                self.park()
            return
        self.pending -= 1
        self.env.log.append((self.env.engine.tick_index, phase, self.name))
        for when, kind, target, units in self.script:
            if when == phase:
                self.env.act(kind, target, units)

    def pre_tick(self, dt):
        self._call("pre")

    def arbitrate(self, dt):
        self._call("arb")

    def commit_tick(self, dt):
        self._call("commit")


class ProbeEnv:
    """One engine driving the probes of ``spec``."""

    def __init__(self, engine_cls, spec):
        self.sim = Simulator()
        self.engine = engine_cls(self.sim, dt=1.0)
        self.log = []
        self.roles = []
        self.probes = []
        for i, (roles, order, pending, sticky, script) in enumerate(spec):
            probe = Probe(self, f"x{i}", script, sticky)
            probe.pending = pending
            self.probes.append(probe)
            self.roles.append((roles, order))
        self.registered = set()

    def act(self, kind, i, units):
        probe = self.probes[i]
        if kind == "work":
            probe.pending += units
            probe.wake()
            return
        roles, order = self.roles[i]
        if i in self.registered:
            self.registered.discard(i)
            if roles != "a":
                self.engine.remove_participant(probe)
            if roles != "p":
                self.engine.remove_arbiter(probe)
        else:
            self.registered.add(i)
            if roles != "a":
                self.engine.add_participant(probe, order=order)
            if roles != "p":
                self.engine.add_arbiter(probe, order=order)

    def run(self, between):
        """Tick by tick, with ``between[t]`` acted out before tick t."""
        for t, actions in enumerate(between):
            for kind, i, units in actions:
                self.act(kind, i, units)
            if t == 0:
                self.engine.start()
            self.sim.run(until=float(t + 1))
            yield t


_KINDS = st.sampled_from(("work", "work", "toggle"))
#: (kind, probe, units) acted out between ticks
_actions = st.tuples(_KINDS, st.integers(0, 5), st.integers(1, 2))
#: (phase, kind, probe, units) acted out by a probe's work call
_script = st.tuples(st.sampled_from(PHASES), _KINDS, st.integers(0, 5),
                    st.integers(1, 2))


@settings(max_examples=300, deadline=None)
@given(spec=st.lists(st.tuples(st.sampled_from(("p", "a", "pa")),
                               st.integers(0, 3), st.integers(0, 2),
                               st.booleans(),
                               st.lists(_script, max_size=3)),
                     min_size=6, max_size=6),
       between=st.lists(st.lists(_actions, max_size=3), min_size=1,
                        max_size=8),
       initial=st.sets(st.integers(0, 5)))
def test_active_set_runs_exactly_the_always_tick_calls_that_work(
        spec, between, initial):
    """Random registrations, parks and wake-ups (from inside each phase,
    at earlier or later orders, for the same or another phase, and
    between ticks): the active-set engine must make every call the
    always-tick engine makes that does work, in the same order, and no
    parked probe may hold work after a tick."""
    logs = []
    for engine_cls in (TickEngine, AlwaysTickEngine):
        env = ProbeEnv(engine_cls, spec)
        for i in sorted(initial):
            env.act("toggle", i, 0)
        for _ in env.run(between):
            if engine_cls is TickEngine:
                for key, probe in env.engine._parked.items():
                    assert probe.pending == 0, probe.name
                    assert key in env.engine._participants \
                        or key in env.engine._arbiters
        logs.append((env.log, [p.pending for p in env.probes]))
    assert logs[0] == logs[1]


def test_tick_engine_start_idempotent():
    sim = Simulator()
    eng = TickEngine(sim, dt=1.0)
    count = []

    class P:
        def pre_tick(self, dt):
            pass

        def commit_tick(self, dt):
            count.append(1)

    eng.add_participant(P())
    eng.start()
    eng.start()
    sim.run(until=1.0)
    assert len(count) == 1


def test_tick_engine_rejects_bad_dt():
    with pytest.raises(ValueError):
        TickEngine(Simulator(), dt=0.0)


def test_periodic_task_fires_on_interval():
    sim = Simulator()
    times = []
    PeriodicTask(sim, 2.0, lambda now: times.append(now))
    sim.run(until=7.0)
    assert times == [2.0, 4.0, 6.0]


def test_periodic_task_cancel():
    sim = Simulator()
    times = []
    task = PeriodicTask(sim, 1.0, lambda now: times.append(now))
    sim.call_at(2.5, task.cancel)
    sim.run(until=10.0)
    assert times == [1.0, 2.0]


def test_periodic_task_interval_change():
    sim = Simulator()
    times = []
    task = PeriodicTask(sim, 1.0, lambda now: times.append(now))
    sim.call_at(2.0, lambda: task.set_interval(3.0))
    sim.run(until=9.0)
    # fires at 1, 2 with interval 1; interval becomes 3 at t=2 (after firing)
    assert times == [1.0, 2.0, 5.0, 8.0]


def test_periodic_task_rejects_bad_interval():
    sim = Simulator()
    with pytest.raises(ValueError):
        PeriodicTask(sim, 0.0, lambda now: None)
    task = PeriodicTask(sim, 1.0, lambda now: None)
    with pytest.raises(ValueError):
        task.set_interval(-1.0)


def test_rng_streams_deterministic_across_instances():
    a = RngStreams(7).get("workload").random(5)
    b = RngStreams(7).get("workload").random(5)
    assert np.allclose(a, b)


def test_rng_streams_independent_of_creation_order():
    s1 = RngStreams(3)
    s1.get("x")
    first = s1.get("y").random(4)
    s2 = RngStreams(3)
    second = s2.get("y").random(4)  # "y" created first here
    assert np.allclose(first, second)


def test_rng_streams_distinct_names_distinct_sequences():
    s = RngStreams(1)
    assert not np.allclose(s.get("aaaaaaaa1").random(8),
                           s.get("aaaaaaaa2").random(8))


def test_rng_streams_seed_changes_sequences():
    a = RngStreams(1).get("w").random(4)
    b = RngStreams(2).get("w").random(4)
    assert not np.allclose(a, b)


def test_rng_streams_contains():
    s = RngStreams(0)
    assert "k" not in s
    s.get("k")
    assert "k" in s
