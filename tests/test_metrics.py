"""Tests for time series, recorder, and analysis helpers."""

import numpy as np
import pytest

from repro.metrics import Recorder, TimeSeries, recovery_time, window_mean


def fill(series, pairs):
    for t, v in pairs:
        series.append(t, v)
    return series


def test_series_append_and_views():
    s = TimeSeries("x", initial_capacity=2)
    for i in range(10):  # force growth
        s.append(float(i), float(i * 2))
    assert len(s) == 10
    assert s.t.tolist() == [float(i) for i in range(10)]
    assert s.v[3] == 6.0


def test_series_views_read_only():
    s = fill(TimeSeries(), [(0, 1)])
    with pytest.raises(ValueError):
        s.t[0] = 5.0


def test_series_mean_and_empty():
    s = fill(TimeSeries(), [(0, 2), (1, 4)])
    assert s.mean() == 3.0
    with pytest.raises(ValueError):
        TimeSeries().mean()


def test_series_between():
    s = fill(TimeSeries(), [(0, 1), (1, 2), (2, 3), (3, 4)])
    sub = s.between(1.0, 3.0)
    assert sub.t.tolist() == [1.0, 2.0]
    assert sub.v.tolist() == [2.0, 3.0]


def test_series_resample_buckets():
    s = fill(TimeSeries(), [(0.1, 1), (0.9, 3), (1.5, 10)])
    r = s.resample(1.0)
    assert r.t.tolist() == [0.5, 1.5]
    assert r.v.tolist() == [2.0, 10.0]


def test_series_resample_validation():
    with pytest.raises(ValueError):
        TimeSeries().resample(0.0)
    assert len(TimeSeries().resample(1.0)) == 0


def test_recorder_creates_and_accumulates():
    r = Recorder()
    r.record("vm1.tput", 0.0, 5.0)
    r.record("vm1.tput", 1.0, 7.0)
    assert len(r.series("vm1.tput")) == 2
    assert r.has("vm1.tput")
    assert not r.has("vm2.tput")


def _resample_reference(series, dt):
    """The pre-vectorization loop implementation, kept as the oracle."""
    out = TimeSeries(series.name)
    if len(series) == 0:
        return out
    buckets = np.floor(series.t / dt).astype(np.int64)
    for b in np.unique(buckets):
        mask = buckets == b
        out.append((b + 0.5) * dt, float(series.v[mask].sum())
                   / int(mask.sum()))
    return out


def test_series_resample_matches_reference():
    rng = np.random.default_rng(7)
    s = TimeSeries()
    t = np.cumsum(rng.uniform(0.01, 0.4, size=500))
    # integer-valued floats: bucket sums are exact in either summation
    # order, so the comparison is bitwise
    v = rng.integers(0, 1000, size=500).astype(float)
    for ti, vi in zip(t, v):
        s.append(float(ti), float(vi))
    for dt in (0.1, 0.5, 2.0):
        got = s.resample(dt)
        want = _resample_reference(s, dt)
        assert got.t.tolist() == want.t.tolist()
        assert got.v.tolist() == want.v.tolist()


def test_series_resample_singleton():
    s = fill(TimeSeries("one"), [(3.2, 5.0)])
    r = s.resample(1.0)
    assert len(r) == 1
    assert r.t.tolist() == [3.5]
    assert r.v.tolist() == [5.0]


def test_window_mean():
    r = Recorder()
    for t, v in [(0, 10), (1, 20), (2, 100)]:
        r.record("x", t, v)
    assert window_mean(r.series("x"), 0, 2) == 15.0


def test_recovery_time_simple():
    s = TimeSeries()
    # drops at t=100, recovers at t=150 and stays up
    for t in range(0, 300):
        v = 100.0 if (t < 100 or t >= 150) else 10.0
        s.append(float(t), v)
    rec = recovery_time(s, start=100.0, target=90.0, smooth_window=1.0,
                        sustain=5.0)
    assert rec == pytest.approx(50.0, abs=2.0)


def test_recovery_time_ignores_transient_spike():
    s = TimeSeries()
    for t in range(0, 300):
        if t < 100:
            v = 100.0
        elif t == 120:
            v = 100.0  # one-tick spike during degradation
        elif t < 200:
            v = 10.0
        else:
            v = 100.0
    # append once per loop iteration
        s.append(float(t), v)
    rec = recovery_time(s, start=100.0, target=90.0, smooth_window=1.0,
                        sustain=10.0)
    assert rec == pytest.approx(100.0, abs=2.0)


def test_recovery_time_never_recovers():
    s = TimeSeries()
    for t in range(100):
        s.append(float(t), 10.0)
    assert recovery_time(s, start=0.0, target=50.0, smooth_window=1.0) is None


def test_recovery_time_recovers_at_series_end():
    s = TimeSeries()
    for t in range(100):
        s.append(float(t), 100.0 if t >= 95 else 10.0)
    # recovery streak runs to the end of the series: counts even if shorter
    # than the sustain window
    rec = recovery_time(s, start=0.0, target=90.0, smooth_window=1.0,
                        sustain=30.0)
    assert rec is not None
