"""Typed streaming instruments aggregating on the simulation clock.

The :class:`MetricsRegistry` is the live counterpart of the
:class:`~repro.obs.Tracer`: where the tracer records *events* for
post-hoc analysis, the registry maintains *aggregates* — monotonic
counters, last-value gauges with history, log-bucketed histograms with
exact quantiles, and trailing-window rates — that can be read at any
point during the run (the SLO monitor, the pressure index, and the
planner's forecast-aware successors all consume them live).

Determinism mirrors the tracer's contract: every sample is stamped with
the *simulation* clock, never the wall clock, so a registry's exported
snapshot is a pure function of the scenario and seed.

The zero-overhead default is :data:`NULL_METRICS` — a
:class:`NullRegistry` whose instrument getters return shared no-op
instruments, so components may cache instruments unconditionally and
hot paths pay a single attribute check::

    if metrics.enabled:
        metrics.counter("net.granted_bytes").inc(total)
"""

from __future__ import annotations

from typing import Callable, Optional

import numpy as np

from repro.metrics.series import TimeSeries

__all__ = [
    "NULL_METRICS",
    "Counter",
    "Gauge",
    "Histogram",
    "MetricsRegistry",
    "NullInstrument",
    "NullRegistry",
    "WindowedRate",
]

#: exact quantiles every histogram reports (export + dashboard)
QUANTILES = (50.0, 95.0, 99.0)


class NullInstrument:
    """No-op stand-in for every instrument type (safe to cache)."""

    enabled = False
    kind = "null"
    value = 0.0
    count = 0
    total = 0.0

    def inc(self, by: float = 1.0) -> None:
        pass

    def set(self, value: float) -> None:
        pass

    def observe(self, value: float) -> None:
        pass

    def mark(self, amount: float = 1.0) -> None:
        pass


#: the shared no-op instrument NullRegistry getters hand out
NULL_INSTRUMENT = NullInstrument()


class NullRegistry:
    """The zero-overhead default: every method is a no-op.

    Instrumentation sites test :attr:`enabled` before touching an
    instrument, so a world without metrics pays one attribute check —
    the same contract as :class:`~repro.obs.NullTracer`.
    """

    enabled = False

    def bind_clock(self, clock: Callable[[], float]) -> None:
        pass

    def counter(self, name: str) -> NullInstrument:
        return NULL_INSTRUMENT

    def gauge(self, name: str) -> NullInstrument:
        return NULL_INSTRUMENT

    def histogram(self, name: str) -> NullInstrument:
        return NULL_INSTRUMENT

    def rate(self, name: str, window_s: float = 10.0) -> NullInstrument:
        return NULL_INSTRUMENT

    # -- one-shot conveniences (dominant form at instrumentation sites) -----
    def inc(self, name: str, by: float = 1.0) -> None:
        pass

    def set(self, name: str, value: float) -> None:
        pass

    def observe(self, name: str, value: float) -> None:
        pass

    def mark(self, name: str, amount: float = 1.0) -> None:
        pass

    def instruments(self) -> list:
        return []


#: the shared no-op registry every component defaults to
NULL_METRICS = NullRegistry()


class Counter:
    """Monotonic event/byte counter."""

    kind = "counter"

    __slots__ = ("name", "value")

    def __init__(self, registry: "MetricsRegistry", name: str):
        self.name = name
        self.value = 0.0

    def inc(self, by: float = 1.0) -> None:
        if by < 0:
            raise ValueError(f"counter {self.name!r} cannot decrease "
                             f"(inc by {by})")
        self.value += by


class Gauge:
    """Last-value gauge keeping its full (t, v) history.

    The history is a :class:`~repro.metrics.TimeSeries` — what the
    dashboard sparklines and the pressure-index consumers read; sim runs
    are bounded, so it is never trimmed.
    """

    kind = "gauge"

    __slots__ = ("name", "_registry", "series")

    def __init__(self, registry: "MetricsRegistry", name: str):
        self.name = name
        self._registry = registry
        self.series = TimeSeries(name)

    def set(self, value: float) -> None:
        self.series.append(self._registry.clock(), value)

    @property
    def value(self) -> float:
        return float(self.series.v[-1]) if len(self.series) else 0.0

    @property
    def count(self) -> int:
        return len(self.series)


class Histogram:
    """Distribution sketch: O(1) observe, exact quantiles at read time.

    Observations append to a geometrically grown NumPy buffer; decade
    log buckets (``10^k`` upper bounds) are computed only at export via
    one ``searchsorted`` pass, and quantiles are *exact*
    (``np.percentile`` over the raw samples), not bucket-interpolated.
    """

    kind = "histogram"

    __slots__ = ("name", "_buf", "_n")

    def __init__(self, registry: "MetricsRegistry", name: str):
        self.name = name
        self._buf = np.empty(64, dtype=float)
        self._n = 0

    def observe(self, value: float) -> None:
        if self._n == self._buf.size:
            grown = np.empty(self._buf.size * 2, dtype=float)
            grown[:self._n] = self._buf
            self._buf = grown
        self._buf[self._n] = value
        self._n += 1

    @property
    def values(self) -> np.ndarray:
        return self._buf[:self._n]

    @property
    def count(self) -> int:
        return self._n

    @property
    def sum(self) -> float:
        return float(self.values.sum()) if self._n else 0.0

    @property
    def max(self) -> float:
        return float(self.values.max()) if self._n else 0.0

    def percentile(self, q: float) -> float:
        if self._n == 0:
            return 0.0
        return float(np.percentile(self.values, q))

    def quantiles(self) -> dict[str, float]:
        """Exact ``{"p50": ..., "p95": ..., "p99": ...}``."""
        if self._n == 0:
            return {f"p{int(q)}": 0.0 for q in QUANTILES}
        vals = np.percentile(self.values, QUANTILES)
        return {f"p{int(q)}": float(v) for q, v in zip(QUANTILES, vals)}

    def buckets(self) -> list[tuple[float, int]]:
        """Cumulative decade log buckets ``[(le, count), ...]``.

        Bounds are ``10^k`` from the decade holding the smallest
        positive sample up to the decade covering the maximum, capped
        to 24 bounds, with a final ``(inf, count)``. Purely a function
        of the observed values — deterministic across same-seed runs.
        """
        if self._n == 0:
            return [(float("inf"), 0)]
        vals = self.values
        top = float(vals.max())
        positive = vals[vals > 0]
        lo_k = int(np.floor(np.log10(positive.min()))) if positive.size \
            else 0
        hi_k = int(np.ceil(np.log10(top))) if top > 0 else lo_k + 1
        hi_k = max(hi_k, lo_k + 1)
        ks = range(lo_k, min(hi_k, lo_k + 23) + 1)
        bounds = np.array([10.0 ** k for k in ks])
        counts = np.searchsorted(np.sort(vals), bounds, side="right")
        out = [(float(b), int(c)) for b, c in zip(bounds, counts)]
        out.append((float("inf"), self._n))
        return out


class WindowedRate:
    """Events (or bytes) per second over a trailing sim-time window.

    Every mark lands in a :class:`~repro.metrics.TimeSeries`; a read
    finds the window — the marks with ``t > now - window_s`` — with one
    ``searchsorted`` over the (non-decreasing) mark times.
    """

    kind = "rate"

    __slots__ = ("name", "_registry", "window_s", "total", "series")

    def __init__(self, registry: "MetricsRegistry", name: str,
                 window_s: float = 10.0):
        if window_s <= 0:
            raise ValueError("window_s must be positive")
        self.name = name
        self._registry = registry
        self.window_s = float(window_s)
        self.total = 0.0
        self.series = TimeSeries(name)

    def mark(self, amount: float = 1.0) -> None:
        self.total += amount
        self.series.append(self._registry.clock(), amount)

    def _window(self) -> np.ndarray:
        """Amounts of the marks inside the window, as of the clock."""
        cutoff = self._registry.clock() - self.window_s
        first = np.searchsorted(self.series.t, cutoff, side="right")
        return self.series.v[first:]

    @property
    def rate(self) -> float:
        """Amount per second over the window, as of the current clock."""
        # builtin sum over Python floats, as the gauge export: 3.12
        # compensates only exact floats, and np.sum adds in another order
        return sum(self._window().tolist()) / self.window_s

    @property
    def count(self) -> int:
        """Marks inside the window, as of the current clock."""
        return int(self._window().size)


class MetricsRegistry(NullRegistry):
    """Owns every instrument, keyed by dotted name.

    Getters are idempotent — the first call creates the instrument, any
    later call returns it; asking for an existing name as a different
    type raises (one name, one meaning). ``clock`` is a zero-argument
    callable returning simulation seconds; a
    :class:`~repro.cluster.World` binds it automatically when the
    registry is passed to its constructor.
    """

    enabled = True

    def __init__(self, clock: Optional[Callable[[], float]] = None):
        self.clock: Callable[[], float] = clock or (lambda: 0.0)
        self._instruments: dict[str, object] = {}

    def bind_clock(self, clock: Callable[[], float]) -> None:
        self.clock = clock

    def _get(self, name: str, cls, **kwargs):
        inst = self._instruments.get(name)
        if inst is None:
            inst = self._instruments[name] = cls(self, name, **kwargs)
        elif type(inst) is not cls:
            raise TypeError(
                f"metric {name!r} already registered as "
                f"{type(inst).__name__}, requested {cls.__name__}")
        return inst

    def counter(self, name: str) -> Counter:
        return self._get(name, Counter)

    def gauge(self, name: str) -> Gauge:
        return self._get(name, Gauge)

    def histogram(self, name: str) -> Histogram:
        return self._get(name, Histogram)

    def rate(self, name: str, window_s: float = 10.0) -> WindowedRate:
        return self._get(name, WindowedRate, window_s=window_s)

    # -- one-shot conveniences ----------------------------------------------
    def inc(self, name: str, by: float = 1.0) -> None:
        self.counter(name).inc(by)

    def set(self, name: str, value: float) -> None:
        self.gauge(name).set(value)

    def observe(self, name: str, value: float) -> None:
        self.histogram(name).observe(value)

    def mark(self, name: str, amount: float = 1.0) -> None:
        self.rate(name).mark(amount)

    # -- introspection --------------------------------------------------------
    def instruments(self) -> list:
        """Every instrument, name-sorted (the export order)."""
        return [self._instruments[k] for k in sorted(self._instruments)]

    def get(self, name: str):
        """The instrument registered under ``name``, or None."""
        return self._instruments.get(name)

    def __len__(self) -> int:
        return len(self._instruments)

    def __contains__(self, name: str) -> bool:
        return name in self._instruments
