"""ASCII dashboard over a live :class:`MetricsRegistry`.

One call renders the registry's current state for the terminal —
gauge sparklines over sim time, counter/rate tables, histogram
quantile tables — reusing the :mod:`repro.metrics.ascii` primitives.
The experiments CLI prints it after a ``--metrics`` run; examples call
it mid-run for a live view.
"""

from __future__ import annotations

import fnmatch
from typing import Optional

from repro.metrics.ascii import format_table, sparkline
from repro.telemetry.instruments import MetricsRegistry

__all__ = ["render_dashboard"]


def _fmt(v: float) -> str:
    if v == int(v) and abs(v) < 1e15:
        return f"{int(v):,}"
    return f"{v:,.3f}"


def render_dashboard(registry: MetricsRegistry, width: int = 48,
                     select: Optional[str] = None) -> str:
    """The registry as a multi-section ASCII dashboard string.

    ``select`` is an optional ``fnmatch`` pattern (e.g. ``pressure.*``)
    restricting which instruments render.
    """
    instruments = registry.instruments()
    if select:
        instruments = [i for i in instruments
                       if fnmatch.fnmatch(i.name, select)]
    gauges = [i for i in instruments if i.kind == "gauge"]
    counters = [i for i in instruments if i.kind == "counter"]
    hists = [i for i in instruments if i.kind == "histogram"]
    rates = [i for i in instruments if i.kind == "rate"]
    lines: list[str] = []
    if gauges:
        lines.append("gauges")
        label_w = min(max(len(g.name) for g in gauges), 34)
        for g in gauges:
            # [0, 1]-bounded signals render against their domain
            v = g.series.v
            hi = 1.0 if v.size and v.max() <= 1.0 and v.min() >= 0.0 \
                else None
            chart = sparkline(v, width=width, lo=0.0, hi=hi)
            lines.append(f"  {g.name:<{label_w}.{label_w}s} "
                         f"|{chart:<{width}s}| {_fmt(g.value)}")
    if counters:
        lines.append("counters")
        lines.extend(format_table(
            ("name", "value"),
            [(c.name, _fmt(c.value)) for c in counters]))
    if rates:
        lines.append("rates")
        lines.extend(format_table(
            ("name", "rate/s", "total"),
            [(r.name, _fmt(r.rate), _fmt(r.total)) for r in rates]))
    if hists:
        lines.append("histograms")
        rows = []
        for h in hists:
            q = h.quantiles()
            rows.append((h.name, h.count, _fmt(q["p50"]), _fmt(q["p95"]),
                         _fmt(q["p99"]), _fmt(h.max)))
        lines.extend(format_table(
            ("name", "count", "p50", "p95", "p99", "max"), rows))
    if not lines:
        return "  (no instruments)"
    return "\n".join(lines)
