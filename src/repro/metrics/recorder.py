"""Named-series recorder shared by all instrumented components."""

from __future__ import annotations

from repro.metrics.series import TimeSeries

__all__ = ["Recorder"]


class Recorder:
    """A registry of named :class:`TimeSeries`.

    Components record under hierarchical names, e.g.
    ``"vm1.throughput"``, ``"vm1.wss"``, ``"src.swap.read_bps"``.
    """

    def __init__(self) -> None:
        self._series: dict[str, TimeSeries] = {}

    def record(self, name: str, t: float, v: float) -> None:
        s = self._series.get(name)
        if s is None:
            s = TimeSeries(name)
            self._series[name] = s
        s.append(t, v)

    def series(self, name: str) -> TimeSeries:
        return self._series[name]

    def has(self, name: str) -> bool:
        return name in self._series
