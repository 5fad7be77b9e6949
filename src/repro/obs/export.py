"""Trace exporters: Chrome trace-event JSON and flat JSONL.

Follows the :mod:`repro.metrics.export` conventions (PathLike in,
``Path`` out). Serialization is deterministic — sorted keys, compact
separators, sim-clock timestamps — so two same-seed runs export
byte-identical files.

The Chrome format (loadable in ``chrome://tracing`` and Perfetto) maps
tracer *tracks* to threads of a single synthetic process: each track
gets a ``tid`` in first-appearance order plus ``thread_name`` /
``thread_sort_index`` metadata, and timestamps are microseconds of
simulation time.
"""

from __future__ import annotations

from pathlib import Path

from repro.metrics.export import PathLike, dumps
from repro.obs.tracer import Span, Tracer

__all__ = ["chrome_trace_doc", "spans_of", "trace_to_chrome",
           "trace_to_jsonl"]

#: synthetic process id for all tracks
PID = 1


def chrome_trace_doc(tracer: Tracer) -> dict:
    """The trace as a Chrome trace-event document (JSON-ready dict)."""
    tids: dict[str, int] = {}
    events: list[dict] = []
    meta: list[dict] = [{
        "ph": "M", "pid": PID, "tid": 0, "ts": 0,
        "name": "process_name", "args": {"name": "repro"},
    }]
    for ev in tracer.events:
        tid = tids.get(ev.track)
        if tid is None:
            tid = tids[ev.track] = len(tids) + 1
            meta.append({"ph": "M", "pid": PID, "tid": tid, "ts": 0,
                         "name": "thread_name",
                         "args": {"name": ev.track}})
            meta.append({"ph": "M", "pid": PID, "tid": tid, "ts": 0,
                         "name": "thread_sort_index",
                         "args": {"sort_index": tid}})
        rec = {"ph": ev.ph, "pid": PID, "tid": tid,
               "ts": ev.t * 1e6, "name": ev.name, "cat": ev.cat or "-"}
        if ev.args:
            rec["args"] = ev.args
        if ev.id is not None:
            rec["id"] = ev.id
        events.append(rec)
    return {"traceEvents": meta + events, "displayTimeUnit": "ms"}


def trace_to_chrome(tracer: Tracer, path: PathLike) -> Path:
    """Write the Chrome trace-event JSON (``chrome://tracing``-loadable)."""
    path = Path(path)
    path.write_text(dumps(chrome_trace_doc(tracer)) + "\n",
                    encoding="utf-8")
    return path


def trace_to_jsonl(tracer: Tracer, path: PathLike) -> Path:
    """Write the flat event log: one JSON object per line, in emission
    order (the grep/jq-friendly counterpart of the Chrome view)."""
    path = Path(path)
    with path.open("w", encoding="utf-8") as fh:
        for ev in tracer.events:
            rec = {"t": ev.t, "ph": ev.ph, "track": ev.track,
                   "name": ev.name, "cat": ev.cat}
            if ev.args:
                rec["args"] = ev.args
            if ev.id is not None:
                rec["id"] = ev.id
            fh.write(dumps(rec) + "\n")
    return path


def spans_of(tracer: Tracer) -> list[Span]:
    """Completed spans (sync and async), ordered by begin time.

    Pairs B/E events per track LIFO and b/e events by id; unmatched
    begins (run still in flight) are dropped — call
    :meth:`Tracer.finish` first to close them.
    """
    spans: list[tuple[float, int, Span]] = []
    stacks: dict[str, list[TraceEventRef]] = {}
    open_async: dict[int, TraceEventRef] = {}
    for seq, ev in enumerate(tracer.events):
        if ev.ph == "B":
            stacks.setdefault(ev.track, []).append(
                TraceEventRef(seq, ev))
        elif ev.ph == "E":
            stack = stacks.get(ev.track)
            if stack:
                ref = stack.pop()
                spans.append((ref.event.t, ref.seq, _pair(ref.event, ev)))
        elif ev.ph == "b" and ev.id is not None:
            open_async[ev.id] = TraceEventRef(seq, ev)
        elif ev.ph == "e" and ev.id is not None:
            ref = open_async.pop(ev.id, None)
            if ref is not None:
                spans.append((ref.event.t, ref.seq, _pair(ref.event, ev)))
    spans.sort(key=lambda s: (s[0], s[1]))
    return [s for _, _, s in spans]


class TraceEventRef:
    __slots__ = ("seq", "event")

    def __init__(self, seq, event):
        self.seq = seq
        self.event = event


def _pair(begin, end) -> Span:
    args = dict(begin.args or {})
    args.update(end.args or {})
    return Span(track=begin.track, name=begin.name, cat=begin.cat,
                t0=begin.t, t1=end.t, args=args)
