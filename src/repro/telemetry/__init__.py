"""Telemetry: deterministic live metrics, SLO probes, pressure index.

Where :mod:`repro.obs` records *events* for post-hoc analysis and
:mod:`repro.metrics` keeps raw evaluation series, this package keeps
*live aggregates* the control plane itself can consume mid-run: typed
instruments in a :class:`MetricsRegistry` (sim-clock timestamps, so
same seed ⇒ byte-identical exports; :class:`Gauge` and
:class:`WindowedRate` keep their samples in a
:class:`~repro.metrics.TimeSeries`), per-tenant :class:`SloMonitor`
probes with per-migration violation attribution, and a cluster
:class:`PressureIndex`. See DESIGN.md §12.
"""

from repro.telemetry.instruments import (
    NULL_METRICS,
    Counter,
    Gauge,
    Histogram,
    MetricsRegistry,
    NullRegistry,
    WindowedRate,
)
from repro.telemetry.export import (
    metrics_snapshot,
    metrics_to_jsonl,
    metrics_to_prometheus,
    prometheus_text,
)
from repro.telemetry.slo import SloMonitor, SloSpec, slo_aware_selector
from repro.telemetry.pressure import PressureConfig, PressureIndex
from repro.telemetry.dashboard import render_dashboard

__all__ = [
    "NULL_METRICS",
    "Counter",
    "Gauge",
    "Histogram",
    "MetricsRegistry",
    "NullRegistry",
    "PressureConfig",
    "PressureIndex",
    "SloMonitor",
    "SloSpec",
    "WindowedRate",
    "metrics_snapshot",
    "metrics_to_jsonl",
    "metrics_to_prometheus",
    "prometheus_text",
    "render_dashboard",
    "slo_aware_selector",
]
