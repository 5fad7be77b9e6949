"""Result export: migration reports and fault logs, plus the one
deterministic JSON encoder every exporter shares.

Experiment results should outlive the Python process — these helpers
turn :class:`~repro.core.base.MigrationReport` objects and fault logs
into JSON-ready dicts. :func:`dumps` is the canonical
encoding (sorted keys, compact separators, NumPy scalars unwrapped)
behind the trace (:mod:`repro.obs.export`) and metrics
(:mod:`repro.telemetry.export`) files, so same-seed runs write
byte-identical bytes.
"""

from __future__ import annotations

import dataclasses
import enum
import json
from pathlib import Path
from typing import Any, Optional, Union

__all__ = ["PathLike", "dumps", "fault_log_to_dict", "report_to_dict"]

PathLike = Union[str, Path]


def _jsonify(obj):
    """json.dumps fallback: NumPy scalars and other .item() carriers."""
    if hasattr(obj, "item"):
        return obj.item()
    raise TypeError(f"not JSON serializable: {type(obj).__name__}")


def dumps(doc) -> str:
    """``doc`` as canonical JSON: sorted keys, compact separators."""
    return json.dumps(doc, sort_keys=True, separators=(",", ":"),
                      default=_jsonify)


def report_to_dict(report: Any) -> dict:
    """A migration report as a JSON-ready dict (including derived
    totals, which dataclass serialization would drop)."""
    out = dataclasses.asdict(report)
    for key, value in out.items():
        if isinstance(value, enum.Enum):
            out[key] = value.value
    out["total_bytes"] = report.total_bytes
    out["total_time"] = report.total_time
    return out


def fault_log_to_dict(log: Any, until: Optional[float] = None) -> dict:
    """A :class:`~repro.faults.FaultLog` as a JSON-ready dict: the event
    timeline plus the downtime-attribution summary. ``until`` truncates
    still-open VM outages (defaults to the last event's time)."""
    events = log.to_rows()
    if until is None:
        until = events[-1][0] if events else 0.0
    return {
        "events": [{"t": t, "action": action, "kind": kind,
                    "target": target, "detail": detail}
                   for t, action, kind, target, detail in events],
        "outages": [{"vm": vm, "start": start, "end": end}
                    for vm, start, end in log.outages],
        "mttr": log.mttr(),
        "vm_unavailable_seconds": log.vm_unavailable_seconds(until),
        "unavailable_vms": log.unavailable_vms(),
    }
