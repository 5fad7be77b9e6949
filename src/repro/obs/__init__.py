"""Observability: sim-clock tracing, exporters, and a trace schema check.

The tracing layer answers the *why* questions the aggregate
:class:`~repro.metrics.Recorder` series cannot — which precopy round
stalled, which planner decision bounced a VM, which fault window an
abort fell into — as time-aligned spans and events across every
subsystem. Traces are bound to the simulation clock, so a trace is as
deterministic as the run itself. See DESIGN.md §8.
"""

from repro.obs.tracer import NULL_TRACER, NullTracer, Span, TraceEvent, Tracer
from repro.obs.export import (
    chrome_trace_doc,
    spans_of,
    trace_to_chrome,
    trace_to_jsonl,
)
from repro.obs.check import missing_categories, validate_chrome_trace

__all__ = [
    "NULL_TRACER",
    "NullTracer",
    "Span",
    "TraceEvent",
    "Tracer",
    "chrome_trace_doc",
    "missing_categories",
    "spans_of",
    "trace_to_chrome",
    "trace_to_jsonl",
    "validate_chrome_trace",
]
