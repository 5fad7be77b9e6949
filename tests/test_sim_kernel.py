"""Unit tests for the discrete-event kernel."""


import pytest

from repro.sim import Simulator
from repro.sim.kernel import SimulationError


def test_clock_starts_at_zero():
    sim = Simulator()
    assert sim.now == 0.0


def test_call_in_runs_at_right_time():
    sim = Simulator()
    seen = []
    sim.call_in(5.0, lambda: seen.append(sim.now))
    sim.run()
    assert seen == [5.0]


def test_call_at_absolute_time():
    sim = Simulator()
    seen = []
    sim.call_at(3.0, lambda: seen.append(sim.now))
    sim.call_at(1.0, lambda: seen.append(sim.now))
    sim.run()
    assert seen == [1.0, 3.0]


def test_fifo_order_for_simultaneous_callbacks():
    sim = Simulator()
    seen = []
    for i in range(10):
        sim.call_at(1.0, seen.append, i)
    sim.run()
    assert seen == list(range(10))


def test_cannot_schedule_in_past():
    sim = Simulator()
    sim.call_in(1.0, lambda: None)
    sim.run()
    with pytest.raises(SimulationError):
        sim.call_at(0.5, lambda: None)


def test_run_until_stops_clock_exactly():
    sim = Simulator()
    sim.call_at(10.0, lambda: None)
    sim.run(until=4.0)
    assert sim.now == 4.0
    sim.run(until=20.0)
    assert sim.now == 20.0


def test_run_until_includes_boundary_events():
    sim = Simulator()
    seen = []
    sim.call_at(4.0, seen.append, "x")
    sim.run(until=4.0)
    assert seen == ["x"]


def test_event_succeed_delivers_value():
    sim = Simulator()
    ev = sim.event("e")
    got = []
    ev.add_callback(lambda e: got.append(e.value))
    ev.succeed(42)
    sim.run()
    assert got == [42]
    assert ev.triggered and not ev.failed


def test_event_double_trigger_raises():
    sim = Simulator()
    ev = sim.event()
    ev.succeed(1)
    with pytest.raises(SimulationError):
        ev.succeed(2)


def test_failed_event_reaches_callbacks_and_run_until_event_raises():
    sim = Simulator()
    ev = sim.event("e")
    boom = ValueError("boom")
    got = []
    ev.add_callback(lambda e: got.append((sim.now, e.failed, e.value)))
    sim.call_in(1.0, lambda: ev.fail(boom))
    with pytest.raises(ValueError):
        sim.run_until_event(ev)
    sim.run()  # the callbacks run on the loop turn after the trigger
    assert got == [(1.0, True, boom)]


def test_callback_added_after_trigger_still_runs():
    sim = Simulator()
    ev = sim.event()
    ev.succeed("late")
    sim.run()
    got = []
    ev.add_callback(lambda e: got.append(e.value))
    sim.run()
    assert got == ["late"]


def test_run_until_event():
    sim = Simulator()
    ev = sim.event()
    sim.call_in(7.0, lambda: ev.succeed("v"))
    sim.call_in(100.0, lambda: None)
    assert sim.run_until_event(ev) == "v"
    assert sim.now == 7.0


def test_run_until_event_queue_drain_raises():
    sim = Simulator()
    ev = sim.event()
    with pytest.raises(SimulationError):
        sim.run_until_event(ev)


def test_run_until_event_limit_raises():
    sim = Simulator()
    ev = sim.event()
    sim.call_in(50.0, lambda: ev.succeed(None))
    with pytest.raises(SimulationError):
        sim.run_until_event(ev, limit=10.0)


