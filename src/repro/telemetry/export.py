"""Metrics exporters: deterministic JSONL and Prometheus-style text.

Follows the :mod:`repro.obs.export` conventions — PathLike in, ``Path``
out, sorted keys, compact separators, sim-clock timestamps — so two
same-seed runs export byte-identical files (regression-tested).

The JSONL form is the machine-readable snapshot: a header line, then
one JSON object per instrument in name order. The Prometheus form is
the operator-facing exposition text (``# TYPE`` comments, cumulative
``_bucket{le="..."}`` lines, ``_sum``/``_count``, summary-style
quantile lines) for anything that speaks the ecosystem's format.
"""

from __future__ import annotations

import re
from pathlib import Path

from repro.metrics.export import PathLike, dumps
from repro.telemetry.instruments import MetricsRegistry

__all__ = ["metrics_snapshot", "metrics_to_jsonl", "prometheus_text",
           "metrics_to_prometheus"]

_NAME_RE = re.compile(r"[^a-zA-Z0-9_:]")


def _round(v: float) -> float:
    """Canonical float for export: kills accumulation noise without
    losing anything the evaluation reads (12 significant-ish digits)."""
    return round(float(v), 9)


def _instrument_doc(inst) -> dict:
    """One instrument as a JSON-ready summary record."""
    doc: dict = {"name": inst.name, "type": inst.kind}
    if inst.kind == "counter":
        doc["value"] = _round(inst.value)
    elif inst.kind == "gauge":
        doc["value"] = _round(inst.value)
        doc["samples"] = inst.count
        if inst.count:
            # builtins over Python floats, not NumPy reductions: 3.12
            # compensates sum only over exact floats, and np.mean adds
            # in another order, so either would change the exported bytes
            values = inst.series.v.tolist()
            doc["min"] = _round(min(values))
            doc["max"] = _round(max(values))
            doc["mean"] = _round(sum(values) / len(values))
    elif inst.kind == "histogram":
        doc["count"] = inst.count
        doc["sum"] = _round(inst.sum)
        doc["max"] = _round(inst.max)
        doc.update({k: _round(v) for k, v in inst.quantiles().items()})
        doc["buckets"] = [["+Inf" if le == float("inf") else _round(le), n]
                          for le, n in inst.buckets()]
    elif inst.kind == "rate":
        doc["total"] = _round(inst.total)
        doc["window_s"] = _round(inst.window_s)
        doc["rate"] = _round(inst.rate)
    return doc


def metrics_snapshot(registry: MetricsRegistry) -> dict:
    """The registry as a JSON-ready document (instruments name-sorted)."""
    return {
        "kind": "metrics",
        "t": _round(registry.clock()),
        "instruments": [_instrument_doc(i) for i in registry.instruments()],
    }


def metrics_to_jsonl(registry: MetricsRegistry, path: PathLike) -> Path:
    """Write the snapshot as JSONL: a header line, then one instrument
    per line in name order. Deterministic — same seed, same bytes."""
    path = Path(path)
    snap = metrics_snapshot(registry)
    with path.open("w", encoding="utf-8") as fh:
        fh.write(dumps({"kind": snap["kind"], "t": snap["t"],
                        "instruments": len(snap["instruments"])}) + "\n")
        for doc in snap["instruments"]:
            fh.write(dumps(doc) + "\n")
    return path


def _prom_name(name: str, suffix: str = "") -> str:
    return "repro_" + _NAME_RE.sub("_", name) + suffix


def _prom_num(v: float) -> str:
    if v == float("inf"):
        return "+Inf"
    f = float(v)
    return str(int(f)) if f == int(f) and abs(f) < 1e15 else repr(f)


def prometheus_text(registry: MetricsRegistry) -> str:
    """The registry in Prometheus exposition format."""
    lines: list[str] = []
    for inst in registry.instruments():
        if inst.kind == "counter":
            name = _prom_name(inst.name, "_total")
            lines.append(f"# TYPE {name} counter")
            lines.append(f"{name} {_prom_num(inst.value)}")
        elif inst.kind == "gauge":
            name = _prom_name(inst.name)
            lines.append(f"# TYPE {name} gauge")
            lines.append(f"{name} {_prom_num(inst.value)}")
        elif inst.kind == "histogram":
            name = _prom_name(inst.name)
            lines.append(f"# TYPE {name} histogram")
            for le, n in inst.buckets():
                lines.append(f'{name}_bucket{{le="{_prom_num(le)}"}} {n}')
            lines.append(f"{name}_sum {_prom_num(inst.sum)}")
            lines.append(f"{name}_count {inst.count}")
            for key, v in inst.quantiles().items():
                q = int(key[1:]) / 100.0
                lines.append(f'{name}{{quantile="{q}"}} {_prom_num(v)}')
        elif inst.kind == "rate":
            name = _prom_name(inst.name)
            lines.append(f"# TYPE {name}_per_s gauge")
            lines.append(f"{name}_per_s {_prom_num(inst.rate)}")
            lines.append(f"# TYPE {name}_total counter")
            lines.append(f"{name}_total {_prom_num(inst.total)}")
    return "\n".join(lines) + "\n" if lines else ""


def metrics_to_prometheus(registry: MetricsRegistry,
                          path: PathLike) -> Path:
    """Write the Prometheus exposition text."""
    path = Path(path)
    path.write_text(prometheus_text(registry), encoding="utf-8")
    return path
