"""Integration tests: tracing through the full stack.

A traced datacenter rebalance must export a valid Chrome trace carrying
every event family the instrumentation promises (migration phases,
planner decisions, faults, VMD ops, network transfers), and — because
every timestamp is sim time — two same-seed runs must serialize to
byte-identical documents.
"""

import json

import pytest

from repro.experiments.datacenter import (
    DatacenterConfig,
    datacenter_run,
    honeypot_schedule,
)
from repro.obs import (
    Tracer,
    chrome_trace_doc,
    missing_categories,
    spans_of,
    trace_to_chrome,
    validate_chrome_trace,
)

REQUIRED_CATS = ["migration", "phase", "planner", "fault", "vmd", "net"]


@pytest.fixture(scope="module")
def traced_dc():
    tracer = Tracer()
    res = datacenter_run(honeypot_schedule(), DatacenterConfig(),
                         until=30.0, tracer=tracer)
    tracer.finish()
    return tracer, res


def test_trace_is_valid_chrome(traced_dc):
    tracer, _ = traced_dc
    doc = chrome_trace_doc(tracer)
    assert validate_chrome_trace(doc) == []
    assert missing_categories(doc, REQUIRED_CATS) == []


def test_migration_spans_carry_outcomes(traced_dc):
    tracer, res = traced_dc
    migs = [s for s in spans_of(tracer) if s.cat == "migration"]
    assert migs, "no migration spans traced"
    completed = sum(1 for s in migs if s.args.get("outcome") == "completed")
    assert completed == res["outcomes"].get("completed", 0)
    for s in migs:
        assert s.track.startswith("vm:")
        assert s.args.get("src") and s.args.get("dst")
        assert s.t1 >= s.t0


def test_phase_spans_nest_inside_migrations(traced_dc):
    tracer, _ = traced_dc
    spans = spans_of(tracer)
    migs = [s for s in spans if s.cat == "migration"]
    for ph in (s for s in spans
               if s.cat == "phase" and s.track.startswith("vm:")):
        assert any(m.track == ph.track
                   and m.t0 <= ph.t0 and ph.t1 <= m.t1 + 1e-9
                   for m in migs), f"orphan phase span {ph}"


def test_planner_decisions_carry_candidates(traced_dc):
    tracer, _ = traced_dc
    plans = [e for e in tracer.events
             if e.cat == "planner" and e.name == "plan"]
    assert plans
    for ev in plans:
        assert ev.args["dst"]
        cands = ev.args["candidates"]
        assert any(c["dst"] == ev.args["dst"] for c in cands)
        # the winner is the best-scoring candidate
        assert ev.args["score"] == max(c["score"] for c in cands)


def test_fault_spans_match_schedule(traced_dc):
    tracer, _ = traced_dc
    crashes = [s for s in spans_of(tracer)
               if s.cat == "fault" and s.name == "rack-crash"]
    # honeypot schedule: two rack crashes on r2 (second truncated by
    # finish() at t=30)
    assert [s.t0 for s in crashes] == [0.5, 11.5]
    assert all(s.args["target"] == "r2" for s in crashes)


def test_vmd_and_net_events_present(traced_dc):
    tracer, _ = traced_dc
    assert any(e.cat == "vmd" and e.name == "create-namespace"
               for e in tracer.events)
    xfers = [s for s in spans_of(tracer) if s.cat == "net"]
    assert xfers
    assert all(s.args.get("bytes", 0) > 0 for s in xfers)


def test_same_seed_traces_are_byte_identical(tmp_path):
    def run(path):
        tracer = Tracer()
        datacenter_run(honeypot_schedule(), DatacenterConfig(),
                       until=12.0, tracer=tracer)
        tracer.finish()
        return trace_to_chrome(tracer, path)

    a = run(tmp_path / "a.json")
    b = run(tmp_path / "b.json")
    assert a.read_bytes() == b.read_bytes()


def test_different_seed_traces_differ(tmp_path):
    def run(path, seed):
        tracer = Tracer()
        datacenter_run(honeypot_schedule(), DatacenterConfig(seed=seed),
                       until=12.0, tracer=tracer)
        tracer.finish()
        return trace_to_chrome(tracer, path)

    a = run(tmp_path / "a.json", 0)
    b = run(tmp_path / "b.json", 1)
    # sanity check that byte-identity above is not vacuous: with RNG in
    # the loop, some run actually consults it. Equal is allowed (the
    # scenario is mostly deterministic ramps) but both must be valid.
    assert validate_chrome_trace(json.loads(a.read_text())) == []
    assert validate_chrome_trace(json.loads(b.read_text())) == []


def test_untraced_run_is_unchanged():
    # NullTracer default: same outcome counters with zero trace state
    res = datacenter_run(honeypot_schedule(), DatacenterConfig(),
                         until=12.0)
    tracer = Tracer()
    res2 = datacenter_run(honeypot_schedule(), DatacenterConfig(),
                          until=12.0, tracer=tracer)
    assert res["outcomes"] == res2["outcomes"]
    assert res["plan_log"] == res2["plan_log"]
