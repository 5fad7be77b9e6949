"""Unit tests for repro.telemetry: instruments, registry semantics,
exporters (byte-identity), the dashboard, and the pressure index."""

import math

import numpy as np
import pytest

from repro.cluster.world import World
from repro.telemetry import (
    NULL_METRICS,
    MetricsRegistry,
    NullRegistry,
    PressureConfig,
    PressureIndex,
    SloMonitor,
    SloSpec,
    metrics_snapshot,
    metrics_to_jsonl,
    metrics_to_prometheus,
    prometheus_text,
    render_dashboard,
    slo_aware_selector,
)
from repro.telemetry.instruments import NULL_INSTRUMENT
from repro.util import MiB


class FakeClock:
    def __init__(self):
        self.now = 0.0

    def __call__(self):
        return self.now


# -- null semantics -------------------------------------------------------------

def test_null_registry_is_inert():
    assert NULL_METRICS.enabled is False
    assert NULL_METRICS.counter("x") is NULL_INSTRUMENT
    assert NULL_METRICS.gauge("x") is NULL_INSTRUMENT
    assert NULL_METRICS.histogram("x") is NULL_INSTRUMENT
    assert NULL_METRICS.rate("x") is NULL_INSTRUMENT
    # one-shots and instrument methods are no-ops, not errors
    NULL_METRICS.inc("x")
    NULL_METRICS.set("x", 1.0)
    NULL_METRICS.observe("x", 1.0)
    NULL_METRICS.mark("x")
    NULL_INSTRUMENT.inc()
    NULL_INSTRUMENT.set(3.0)
    NULL_INSTRUMENT.observe(3.0)
    NULL_INSTRUMENT.mark()
    assert NULL_METRICS.instruments() == []
    assert isinstance(MetricsRegistry(), NullRegistry)  # substitutable


# -- instruments ----------------------------------------------------------------

def test_counter_monotonic():
    reg = MetricsRegistry()
    c = reg.counter("migration.attempts")
    c.inc()
    c.inc(2.5)
    assert c.value == 3.5
    with pytest.raises(ValueError):
        c.inc(-1.0)


def test_gauge_history_follows_clock():
    clock = FakeClock()
    reg = MetricsRegistry(clock=clock)
    g = reg.gauge("pressure.cluster")
    assert g.value == 0.0 and g.count == 0
    for t, v in ((1.0, 0.25), (2.0, 0.5), (3.0, 0.1)):
        clock.now = t
        g.set(v)
    assert g.value == 0.1
    assert g.t == [1.0, 2.0, 3.0]
    assert g.v == [0.25, 0.5, 0.1]


def test_histogram_exact_quantiles_and_buckets():
    reg = MetricsRegistry()
    h = reg.histogram("lat")
    for v in range(1, 101):
        h.observe(float(v))
    assert h.count == 100
    assert h.sum == pytest.approx(5050.0)
    assert h.max == 100.0
    q = h.quantiles()
    assert q["p50"] == pytest.approx(np.percentile(np.arange(1.0, 101), 50))
    assert q["p95"] == pytest.approx(np.percentile(np.arange(1.0, 101), 95))
    buckets = h.buckets()
    assert buckets[-1] == (float("inf"), 100)
    les = [le for le, _ in buckets]
    assert les == sorted(les)
    # cumulative counts are non-decreasing and hit every sample
    counts = [n for _, n in buckets]
    assert counts == sorted(counts)
    # le=10 holds exactly the 10 samples <= 10
    by_le = dict(buckets)
    assert by_le[10.0] == 10


def test_histogram_empty_and_growth():
    h = MetricsRegistry().histogram("x")
    assert h.count == 0 and h.sum == 0.0 and h.max == 0.0
    assert h.percentile(50) == 0.0
    assert h.buckets() == [(float("inf"), 0)]
    for i in range(200):  # crosses the initial 64-slot buffer twice
        h.observe(float(i))
    assert h.count == 200 and h.values.size == 200


def test_windowed_rate_trailing_eviction():
    clock = FakeClock()
    reg = MetricsRegistry(clock=clock)
    r = reg.rate("net.bytes", window_s=10.0)
    clock.now = 1.0
    r.mark(100.0)
    clock.now = 5.0
    r.mark(300.0)
    assert r.rate == pytest.approx(40.0)  # 400 over a 10 s window
    clock.now = 12.0  # the t=1 mark ages out
    assert r.rate == pytest.approx(30.0)
    assert r.total == 400.0  # lifetime total never evicts


# -- registry semantics ---------------------------------------------------------

def test_registry_getters_idempotent_and_typed():
    reg = MetricsRegistry()
    assert reg.counter("a") is reg.counter("a")
    with pytest.raises(TypeError):
        reg.gauge("a")
    reg.inc("b", 2.0)
    reg.set("c", 1.0)
    reg.observe("d", 5.0)
    reg.mark("e", 3.0)
    assert [i.name for i in reg.instruments()] == list("abcde")
    assert len(reg) == 5 and "a" in reg and "zz" not in reg
    assert reg.get("b").value == 2.0
    assert reg.get("zz") is None


# -- exporters ------------------------------------------------------------------

def populated_registry() -> MetricsRegistry:
    clock = FakeClock()
    reg = MetricsRegistry(clock=clock)
    for t in range(5):
        clock.now = float(t)
        reg.inc("mig.bytes", 1000.0)
        reg.set("pressure", 0.1 * t)
        reg.observe("downtime_s", 0.1 + 0.2 * t)
        reg.mark("ops", 50.0)
    return reg


def test_snapshot_shape():
    snap = metrics_snapshot(populated_registry())
    assert snap["kind"] == "metrics" and snap["t"] == 4.0
    by_name = {d["name"]: d for d in snap["instruments"]}
    assert by_name["mig.bytes"]["type"] == "counter"
    assert by_name["mig.bytes"]["value"] == 5000.0
    assert by_name["pressure"]["samples"] == 5
    assert by_name["downtime_s"]["count"] == 5
    assert by_name["downtime_s"]["buckets"][-1][0] == "+Inf"
    assert by_name["ops"]["total"] == 250.0


def test_jsonl_export_byte_identical(tmp_path):
    p1 = metrics_to_jsonl(populated_registry(), tmp_path / "a.jsonl")
    p2 = metrics_to_jsonl(populated_registry(), tmp_path / "b.jsonl")
    b1, b2 = p1.read_bytes(), p2.read_bytes()
    assert b1 == b2
    lines = b1.decode().splitlines()
    assert len(lines) == 1 + 4  # header + one line per instrument
    assert '"instruments":4' in lines[0]


def test_prometheus_text_format(tmp_path):
    reg = populated_registry()
    text = prometheus_text(reg)
    assert "# TYPE repro_mig_bytes_total counter" in text
    assert "repro_mig_bytes_total 5000" in text
    assert "# TYPE repro_pressure gauge" in text
    assert '_bucket{le="+Inf"} 5' in text
    assert 'repro_downtime_s{quantile="0.5"}' in text
    assert "repro_ops_per_s" in text
    path = metrics_to_prometheus(reg, tmp_path / "m.prom")
    assert path.read_text() == text
    assert prometheus_text(MetricsRegistry()) == ""


# -- dashboard ------------------------------------------------------------------

def test_dashboard_renders_all_sections():
    out = render_dashboard(populated_registry(), width=20)
    assert "gauges" in out and "counters" in out
    assert "rates" in out and "histograms" in out
    assert "pressure" in out and "mig.bytes" in out
    # gauge sparkline pinned to the requested width
    spark_line = next(ln for ln in out.splitlines() if "pressure" in ln)
    assert spark_line.count("|") == 2


def test_dashboard_select_and_empty():
    reg = populated_registry()
    out = render_dashboard(reg, select="mig.*")
    assert "mig.bytes" in out and "pressure" not in out
    assert render_dashboard(MetricsRegistry()) == "  (no instruments)"


# -- world integration ----------------------------------------------------------

def small_world(metrics=None) -> World:
    from repro.cluster.setup import preload_dataset
    w = World(dt=0.1, seed=1, net_bandwidth_bps=10e6, metrics=metrics)
    w.add_host("h1", 64 * MiB, host_os_bytes=2 * MiB)
    w.add_host("h2", 64 * MiB, host_os_bytes=2 * MiB)
    ssd = w.add_ssd("ssd", read_bps=20e6, write_bps=10e6)
    vm = w.add_vm("vm1", 16 * MiB, "h1")
    w.hosts["h1"].place_vm(vm, 16 * MiB, ssd)
    preload_dataset(vm, w.manager_of("h1"), 16 * MiB)
    return w


def test_world_binds_clock_and_publishes_memory_gauges():
    reg = MetricsRegistry()
    w = small_world(metrics=reg)
    w.start_usage_feed(0.5)
    w.run(until=2.0)
    assert reg.clock() == w.sim.now
    g = reg.get("mem.host.h1.used_bytes")
    assert g is not None and g.value > 0


def test_world_defaults_to_null_metrics():
    w = small_world()
    assert w.metrics is NULL_METRICS
    w.run(until=1.0)


def test_pressure_index_publishes_scalars():
    reg = MetricsRegistry()
    w = small_world(metrics=reg)
    idx = PressureIndex(w, config=PressureConfig(interval_s=0.5))
    w.run(until=3.0)
    assert set(idx.hosts) == {"h1", "h2"}
    for p in idx.hosts.values():
        assert 0.0 <= p <= 1.0
    # h1 carries the VM, h2 is empty: memory pressure must order them
    assert idx.hosts["h1"] > idx.hosts["h2"]
    assert reg.get("pressure.cluster").value == pytest.approx(idx.cluster)
    assert idx.cluster == pytest.approx(
        (idx.hosts["h1"] + idx.hosts["h2"]) / 2)
    idx.stop()


# -- SLO monitor ----------------------------------------------------------------

def test_slo_spec_validation():
    with pytest.raises(ValueError):
        SloSpec(min_throughput=-1.0)
    with pytest.raises(ValueError):
        SloSpec(max_latency_s=0.0)
    assert SloSpec().max_latency_s == math.inf


def test_slo_monitor_attach_rejects_duplicates():
    w = small_world()
    mon = SloMonitor(w)
    mon.attach("vm1", SloSpec(min_throughput=1.0))
    with pytest.raises(ValueError):
        mon.attach("vm1", SloSpec())
    assert mon.protected() == frozenset({"vm1"})
    mon.stop()


def test_slo_monitor_accrues_violation_seconds():
    reg = MetricsRegistry()
    w = small_world(metrics=reg)
    mon = SloMonitor(w, interval_s=1.0)
    mon.attach("vm1", SloSpec(min_throughput=100.0), threads=4.0)
    # a throughput series below the floor for the whole run
    def feed(now):
        w.recorder.record("vm1.throughput", now, 10.0)
    from repro.sim.periodic import PeriodicTask
    PeriodicTask(w.sim, 0.1, feed)
    w.run(until=5.0)
    assert mon.total_violation_s >= 3.0
    assert mon.violation_seconds()["vm1"] == mon.total_violation_s
    # nothing in flight: the cause ledger says so
    assert set(mon.attribution()["vm1"]) == {"unattributed"}
    assert reg.get("slo.vm1.throughput").value == pytest.approx(10.0)
    assert reg.get("slo.violation_s").value == mon.total_violation_s
    mon.stop()


def test_slo_aware_selector_prefers_unprotected():
    w = small_world()
    mon = SloMonitor(w)
    mon.attach("srv", SloSpec(min_throughput=1.0))
    select = slo_aware_selector(mon)
    wss = {"srv": 30.0, "b0": 20.0, "b1": 10.0}
    # needs 25 shed: unprotected b0 (20) + b1 (10) before touching srv
    assert select(wss, 35.0) == ["b0", "b1"]
    # needs everything: protected tenants go last
    assert select(wss, 5.0) == ["b0", "b1", "srv"]
    # under target: nothing to shed
    assert select(wss, 100.0) == []
    mon.stop()


def test_net_utilization_zero_capacity_is_full_pressure():
    """A NIC degraded to zero capacity reads as saturated (1.0) even
    with zero granted bytes — 0/0 must not report an idle link."""
    w = small_world()
    idx = PressureIndex(w, config=PressureConfig(interval_s=0.5))
    assert idx._net_utilization({}, "h1") == 0.0
    nic = w.network.nic("h1")
    nic.tx.degrade(0.0)
    nic.rx.degrade(0.0)
    assert idx._net_utilization({}, "h1") == 1.0
    # out-of-network hosts carry no net pressure
    assert idx._net_utilization({}, "ghost") == 0.0
    nic.tx.restore()
    nic.rx.restore()
    idx.stop()


def test_granted_by_host_sums_the_network_grants():
    """Per-host (tx, rx) accounting is the sum of the world network's
    own flow grants: 16 parallel h1->h2 lanes fill h1's tx link."""
    w = small_world()
    idx = PressureIndex(w, config=PressureConfig(interval_s=0.5))
    lanes = [w.network.open_flow("h1", "h2", priority=1, name=f"lane{k}")
             for k in range(16)]
    for f in lanes:
        f.demand = 2e5
    w.network.arbitrate(0.1)
    sent = 0.0
    for f in w.network.flows:
        sent += f.granted
    assert sent == pytest.approx(w.network.nic("h1").tx.capacity_per_tick(0.1))
    granted = idx._granted_by_host()
    tx1, rx1 = granted["h1"]
    assert tx1 == sent
    assert rx1 == 0.0
    assert granted["h2"] == (0.0, tx1)
    # and the utilization term folds it per-direction
    assert idx._net_utilization(granted, "h1") == pytest.approx(
        tx1 / w.network.nic("h1").tx.capacity_per_tick(0.1))
    idx.stop()
