"""Unit tests of the fault-injection engine: specs, schedules, injector
effects, the fault log, and timeline determinism."""

import numpy as np
import pytest

from repro.cluster.world import World
from repro.faults import (
    FaultKind,
    FaultLog,
    FaultSchedule,
    FaultSpec,
)
from repro.util import MiB


# -- specs and schedules --------------------------------------------------------

def test_spec_validation():
    with pytest.raises(ValueError):
        FaultSpec(FaultKind.NIC_DOWN, "src", at=-1.0)
    with pytest.raises(ValueError):
        FaultSpec(FaultKind.NIC_DOWN, "src", at=0.0, duration=0.0)
    with pytest.raises(ValueError):
        FaultSpec(FaultKind.NIC_DEGRADED, "src", at=0.0, severity=0.0)
    with pytest.raises(ValueError):
        FaultSpec(FaultKind.NIC_DOWN, "", at=0.0)
    spec = FaultSpec(FaultKind.NIC_DOWN, "src", at=1.0, duration=2.0)
    assert spec.recovery_at == 3.0


def test_schedule_sorted_and_stable():
    a = FaultSpec(FaultKind.NIC_DOWN, "b", at=5.0)
    b = FaultSpec(FaultKind.NIC_DOWN, "a", at=5.0)
    c = FaultSpec(FaultKind.SSD_DEGRADED, "ssd", at=1.0, severity=0.5)
    s1 = FaultSchedule([a, b, c])
    s2 = FaultSchedule([c, a, b])
    assert s1.specs == s2.specs
    assert s1.specs[0] is c           # time-ordered
    assert [s.target for s in s1.specs[1:]] == ["a", "b"]  # tie-broken


def test_random_schedule_deterministic():
    def build(seed):
        rng = np.random.default_rng(seed)
        return FaultSchedule.random(
            rng, 600.0, hosts=["src", "dst"], vmd_hosts=["vmdsrv0"],
            ssds=["ssd.src"], mean_interval_s=40.0)
    s1, s2 = build(7), build(7)
    assert s1.describe() == s2.describe()
    assert len(s1) > 0
    s3 = build(8)
    assert s3.describe() != s1.describe()


def test_random_schedule_needs_targets():
    with pytest.raises(ValueError):
        FaultSchedule.random(np.random.default_rng(0), 100.0)


# -- injector physical effects --------------------------------------------------

def small_world():
    w = World(dt=0.1, seed=0, net_bandwidth_bps=10e6)
    w.add_host("a", 64 * MiB, host_os_bytes=1 * MiB)
    w.add_host("b", 64 * MiB, host_os_bytes=1 * MiB)
    return w


def test_injector_validates_targets_eagerly():
    w = small_world()
    sched = FaultSchedule([FaultSpec(FaultKind.NIC_DOWN, "nope", at=1.0)])
    with pytest.raises(ValueError):
        w.attach_faults(sched)


def test_nic_down_and_recovery():
    w = small_world()
    sched = FaultSchedule(
        [FaultSpec(FaultKind.NIC_DOWN, "a", at=1.0, duration=2.0)])
    inj = w.attach_faults(sched)
    nic = w.network.nic("a")
    w.run(until=1.5)
    assert nic.tx.capacity_bps == 0.0 and nic.rx.capacity_bps == 0.0
    assert nic.tx.degraded
    w.run(until=3.5)
    assert nic.tx.capacity_bps == nic.tx.nominal_bps
    assert not nic.tx.degraded
    assert [e.action for e in inj.log.events] == ["inject", "revert"]
    assert inj.log.mttr() == pytest.approx(2.0)


def test_nic_degraded_scales_capacity():
    w = small_world()
    sched = FaultSchedule([FaultSpec(FaultKind.NIC_DEGRADED, "b", at=1.0,
                                     duration=1.0, severity=0.25)])
    w.attach_faults(sched)
    w.run(until=1.5)
    nic = w.network.nic("b")
    assert nic.tx.capacity_bps == pytest.approx(0.25 * nic.tx.nominal_bps)
    w.run(until=2.5)
    assert not nic.tx.degraded


def test_partition_blocks_flows_and_heals():
    w = small_world()
    sched = FaultSchedule(
        [FaultSpec(FaultKind.PARTITION, "a|b", at=1.0, duration=2.0)])
    w.attach_faults(sched)
    flow = w.network.open_flow("a", "b")
    w.run(until=0.5)
    assert w.network.reachable("a", "b")
    w.run(until=1.5)
    assert not w.network.reachable("a", "b")
    flow.demand = 1e6
    w.network.arbitrate(0.1)
    assert flow.granted == 0.0
    assert flow.demand == 0.0  # consumed, not accumulated
    w.run(until=3.5)
    assert w.network.reachable("a", "b")
    flow.demand = 1e5
    w.network.arbitrate(0.1)
    assert flow.granted == pytest.approx(1e5)


def test_host_crash_kills_vms_and_logs_outage():
    w = small_world()
    vm = w.add_vm("vm0", 4 * MiB, "a")
    sched = FaultSchedule([FaultSpec(FaultKind.HOST_CRASH, "a", at=1.0,
                                     duration=5.0)])
    inj = w.attach_faults(sched)
    w.run(until=2.0)
    assert not vm.is_running
    assert inj.log.unavailable_vms() == ["vm0"]
    # the NIC reboots at t=6; the VM does not come back
    w.run(until=7.0)
    assert not w.network.nic("a").tx.degraded
    assert not vm.is_running
    assert inj.log.vm_unavailable_seconds(11.0) == pytest.approx(10.0)


def test_ssd_degraded_throttles_grants():
    w = small_world()
    ssd = w.add_ssd("ssd.a", read_bps=10e6, write_bps=10e6)
    q = ssd.open_queue("q", "read")
    sched = FaultSchedule([FaultSpec(FaultKind.SSD_DEGRADED, "ssd.a",
                                     at=1.0, duration=1.0, severity=0.1)])
    w.attach_faults(sched)
    w.run(until=1.5)
    q.demand = 10e6
    ssd.arbitrate(1.0)
    assert q.granted == pytest.approx(1e6)
    w.run(until=2.5)
    q.demand = 10e6
    ssd.arbitrate(1.0)
    assert q.granted == pytest.approx(10e6)


def test_vmd_crash_and_recovery_roundtrip():
    w = small_world()
    vmd = w.add_vmd([("m0", 64 * MiB)])
    ns = vmd.create_namespace("vm0")
    ns.preload(8 * MiB)
    server = vmd.server_on("m0")
    sched = FaultSchedule([FaultSpec(FaultKind.VMD_CRASH, "m0", at=1.0,
                                     duration=2.0)])  # contents preserved
    w.attach_faults(sched)
    w.run(until=1.5)
    assert not server.alive
    assert not ns.data_lost  # unreachable, not destroyed
    w.run(until=3.5)
    assert server.alive
    assert ns.used_bytes == pytest.approx(8 * MiB)


def test_subscribers_see_inject_and_revert():
    w = small_world()
    seen = []
    sched = FaultSchedule(
        [FaultSpec(FaultKind.NIC_DOWN, "a", at=1.0, duration=1.0)])
    inj = w.attach_faults(sched)
    inj.subscribe(lambda spec, phase: seen.append((spec.kind, phase)))
    w.run(until=3.0)
    assert seen == [(FaultKind.NIC_DOWN, "inject"),
                    (FaultKind.NIC_DOWN, "revert")]


def test_attach_faults_twice_rejected():
    w = small_world()
    w.attach_faults(FaultSchedule())
    with pytest.raises(RuntimeError):
        w.attach_faults(FaultSchedule())


# -- fault log ------------------------------------------------------------------

def test_log_outage_accounting():
    log = FaultLog()
    log.mark_vm_unavailable("vm0", 10.0)
    log.mark_vm_unavailable("vm0", 11.0)  # idempotent while open
    log.mark_vm_available("vm0", 15.0)
    log.mark_vm_unavailable("vm1", 20.0)  # never restored
    assert log.vm_unavailable_seconds(30.0) == pytest.approx(5.0 + 10.0)
    assert log.unavailable_vms() == ["vm1"]
    assert log.outages == [("vm0", 10.0, 15.0)]


def test_log_mttr_over_reverted_faults():
    log = FaultLog()
    assert log.mttr() is None
    log.record(1.0, "inject", "nic-down", "a")
    log.record(3.0, "revert", "nic-down", "a")
    log.record(5.0, "inject", "nic-down", "b")
    log.record(11.0, "revert", "nic-down", "b")
    log.record(20.0, "inject", "host-crash", "c")  # never repaired
    assert log.mttr() == pytest.approx(4.0)


# -- end-to-end determinism -----------------------------------------------------

def test_fault_timeline_deterministic():
    def run_once():
        w = small_world()
        w.add_vm("vm0", 4 * MiB, "a")
        rng = np.random.default_rng(123)
        sched = FaultSchedule.random(
            rng, 30.0, hosts=["a", "b"], mean_interval_s=5.0,
            mean_duration_s=2.0)
        inj = w.attach_faults(sched)
        w.run(until=40.0)
        return inj.log.describe()
    assert run_once() == run_once()
