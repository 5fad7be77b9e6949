"""Unit tests for repro.obs: tracer semantics, exporters and the schema
check."""

import json
import os
import subprocess
import sys
from pathlib import Path

import pytest

from repro.obs import (
    NULL_TRACER,
    NullTracer,
    Tracer,
    chrome_trace_doc,
    missing_categories,
    spans_of,
    trace_to_chrome,
    trace_to_jsonl,
    validate_chrome_trace,
)


class FakeClock:
    def __init__(self):
        self.now = 0.0

    def __call__(self):
        return self.now


# -- tracer core ---------------------------------------------------------------

def test_null_tracer_is_inert():
    assert NULL_TRACER.enabled is False
    NULL_TRACER.begin("t", "a")
    NULL_TRACER.end("t")
    NULL_TRACER.instant("t", "x")
    assert NULL_TRACER.async_begin("t", "x") == 0
    NULL_TRACER.async_end(0)
    with NULL_TRACER.span("t", "s"):
        pass
    NULL_TRACER.finish()


def test_tracer_span_nesting_lifo():
    clk = FakeClock()
    tr = Tracer(clock=clk)
    tr.begin("vm:a", "outer")
    clk.now = 1.0
    tr.begin("vm:a", "inner")
    clk.now = 2.0
    tr.end("vm:a")
    clk.now = 3.0
    tr.end("vm:a")
    spans = spans_of(tr)
    assert [(s.name, s.t0, s.t1) for s in spans] == [
        ("outer", 0.0, 3.0), ("inner", 1.0, 2.0)]


def test_tracer_end_without_begin_raises():
    tr = Tracer()
    with pytest.raises(ValueError):
        tr.end("vm:a")


def test_tracer_tracks_are_independent():
    tr = Tracer()
    tr.begin("vm:a", "x")
    with pytest.raises(ValueError):
        tr.end("vm:b")


def test_span_context_manager_closes_on_error():
    tr = Tracer()
    with pytest.raises(RuntimeError):
        with tr.span("t", "s"):
            raise RuntimeError("boom")
    assert not tr._stacks.get("t")


def test_async_spans_overlap_and_pair_by_id():
    clk = FakeClock()
    tr = Tracer(clock=clk)
    a = tr.async_begin("net:c", "xfer", cat="net", args={"bytes": 1.0})
    clk.now = 1.0
    b = tr.async_begin("net:c", "xfer", cat="net", args={"bytes": 2.0})
    clk.now = 2.0
    tr.async_end(a)
    clk.now = 3.0
    tr.async_end(b)
    spans = spans_of(tr)
    assert len(spans) == 2
    assert spans[0].args["bytes"] == 1.0 and spans[0].t1 == 2.0
    assert spans[1].args["bytes"] == 2.0 and spans[1].t1 == 3.0


def test_async_end_unknown_id_is_ignored():
    tr = Tracer()
    tr.async_end(0)
    tr.async_end(999)
    assert len(tr.events) == 0


def test_finish_closes_open_spans():
    clk = FakeClock()
    tr = Tracer(clock=clk)
    tr.begin("vm:a", "migration")
    aid = tr.async_begin("faults", "host-crash")
    assert aid != 0
    clk.now = 5.0
    tr.finish()
    spans = spans_of(tr)
    assert {(s.name, s.t1) for s in spans} == {
        ("migration", 5.0), ("host-crash", 5.0)}
    assert all(s.args.get("unclosed") for s in spans)


def test_span_args_merge_begin_and_end():
    tr = Tracer()
    tr.begin("t", "s", args={"a": 1})
    tr.end("t", args={"b": 2})
    (span,) = spans_of(tr)
    assert span.args == {"a": 1, "b": 2}
    assert span.duration == 0.0


def test_tracer_is_a_null_tracer_subtype():
    # components type against NullTracer; a live Tracer must substitute
    assert isinstance(Tracer(), NullTracer)
    assert Tracer().enabled is True


# -- exporters -----------------------------------------------------------------

def sample_tracer():
    clk = FakeClock()
    tr = Tracer(clock=clk)
    tr.instant("planner", "plan", cat="planner", args={"vm": "vm0"})
    tr.begin("vm:vm0", "migration", cat="migration")
    clk.now = 1.5
    aid = tr.async_begin("net:c", "xfer", cat="net")
    clk.now = 2.0
    tr.async_end(aid)
    tr.instant("host:h0", "load", cat="fleet", args={"vms": 3})
    clk.now = 4.0
    tr.end("vm:vm0")
    return tr


def test_chrome_doc_structure():
    doc = chrome_trace_doc(sample_tracer())
    assert validate_chrome_trace(doc) == []
    events = doc["traceEvents"]
    # one process_name + (thread_name + sort_index) per track
    tracks = {e["args"]["name"] for e in events
              if e.get("ph") == "M" and e["name"] == "thread_name"}
    assert tracks == {"planner", "vm:vm0", "net:c", "host:h0"}
    # sim seconds -> microseconds
    ends = [e for e in events if e["ph"] == "E"]
    assert ends[0]["ts"] == 4.0e6


def test_chrome_trace_roundtrip_and_determinism(tmp_path):
    p1 = trace_to_chrome(sample_tracer(), tmp_path / "a.json")
    p2 = trace_to_chrome(sample_tracer(), tmp_path / "b.json")
    assert p1.read_bytes() == p2.read_bytes()
    doc = json.loads(p1.read_text())
    assert validate_chrome_trace(doc) == []


def test_jsonl_roundtrip(tmp_path):
    path = trace_to_jsonl(sample_tracer(), tmp_path / "t.jsonl")
    recs = [json.loads(line) for line in path.read_text().splitlines()]
    assert len(recs) == 6
    assert recs[0] == {"t": 0.0, "ph": "i", "track": "planner",
                       "name": "plan", "cat": "planner",
                       "args": {"vm": "vm0"}}
    # async events carry their pairing id
    assert {r["id"] for r in recs if r["ph"] in ("b", "e")} == {1}


def test_empty_tracer_exports(tmp_path):
    tr = Tracer()
    doc = chrome_trace_doc(tr)
    assert validate_chrome_trace(doc) == []
    assert trace_to_jsonl(tr, tmp_path / "e.jsonl").read_text() == ""
    assert spans_of(tr) == []


def test_spans_of_drops_unmatched_begins():
    tr = Tracer()
    tr.begin("t", "open")
    tr.begin("t", "closed")
    tr.end("t")
    assert [s.name for s in spans_of(tr)] == ["closed"]


# -- schema check --------------------------------------------------------------

def test_validate_rejects_malformed_docs():
    assert validate_chrome_trace([]) != []
    assert validate_chrome_trace({}) == ["missing traceEvents array"]
    # "C" (counter): sampled values live in series, not in the trace
    for ph in ("Z", "C"):
        bad_phase = {"traceEvents": [
            {"ph": ph, "ts": 0, "pid": 1, "tid": 1, "name": "x"}]}
        assert any("unknown phase" in e
                   for e in validate_chrome_trace(bad_phase))


def test_validate_catches_unbalanced_spans():
    end_only = {"traceEvents": [
        {"ph": "E", "ts": 0, "pid": 1, "tid": 1, "name": "x"}]}
    assert any("E without matching B" in e
               for e in validate_chrome_trace(end_only))
    open_span = {"traceEvents": [
        {"ph": "B", "ts": 0, "pid": 1, "tid": 1, "name": "x"}]}
    assert any("unclosed span" in e
               for e in validate_chrome_trace(open_span))


def test_validate_catches_unpaired_async():
    doc = {"traceEvents": [
        {"ph": "b", "ts": 0, "pid": 1, "tid": 1, "name": "x",
         "cat": "net", "id": 7}]}
    assert any("unclosed async" in e for e in validate_chrome_trace(doc))
    doc = {"traceEvents": [
        {"ph": "e", "ts": 0, "pid": 1, "tid": 1, "name": "x",
         "cat": "net", "id": 7}]}
    assert any("async end without begin" in e
               for e in validate_chrome_trace(doc))


def test_missing_categories():
    doc = chrome_trace_doc(sample_tracer())
    assert missing_categories(doc, ["planner", "net"]) == []
    assert missing_categories(doc, ["fault", "net"]) == ["fault"]


def test_check_cli(tmp_path, capsys):
    from repro.obs.check import main
    path = trace_to_chrome(sample_tracer(), tmp_path / "t.json")
    assert main([str(path), "--require", "planner,net"]) == 0
    assert main([str(path), "--require", "fault"]) == 1
    assert main([str(tmp_path / "missing.json")]) == 1
    out = capsys.readouterr().out
    assert "ok:" in out and "FAIL" in out


def test_check_module_runs_without_runtime_warning(tmp_path):
    """``python -m repro.obs.check`` must not find its own module
    already imported by ``repro.obs`` (a RuntimeWarning, here an
    error)."""
    path = trace_to_chrome(sample_tracer(), tmp_path / "t.json")
    src = Path(__file__).resolve().parents[1] / "src"
    env = dict(os.environ, PYTHONPATH=str(src))
    run = subprocess.run(
        [sys.executable, "-W", "error::RuntimeWarning", "-m",
         "repro.obs.check", str(path), "--require", "planner,net"],
        capture_output=True, text=True, env=env)
    assert run.returncode == 0, run.stderr
    assert "ok:" in run.stdout
    assert "RuntimeWarning" not in run.stderr


# -- exporter round-trips -------------------------------------------------------

def test_jsonl_instant_round_trip(tmp_path):
    tr = sample_tracer()
    path = trace_to_jsonl(tr, tmp_path / "t.jsonl")
    records = [json.loads(line)
               for line in path.read_text().splitlines()]
    assert len(records) == len(tr.events)
    instants = [r for r in records if r["ph"] == "i"]
    assert instants == [{"t": 0.0, "ph": "i", "track": "planner",
                         "name": "plan", "cat": "planner",
                         "args": {"vm": "vm0"}},
                        {"t": 2.0, "ph": "i", "track": "host:h0",
                         "name": "load", "cat": "fleet",
                         "args": {"vms": 3}}]
    # every original event survives with its timing and identity intact
    for rec, ev in zip(records, tr.events):
        assert rec["t"] == ev.t and rec["ph"] == ev.ph
        assert rec["track"] == ev.track and rec["name"] == ev.name
