"""Recovery semantics: abort/rollback, split-state failure, Agile donor
survival, supervised retry with backoff, and same-seed determinism."""

import pytest

from repro.cluster.scenarios import TestbedConfig, make_single_vm_lab
from repro.core.base import MigrationConfig, MigrationOutcome
from repro.faults import (
    FaultKind,
    FaultSchedule,
    FaultSpec,
    RetryPolicy,
)
from repro.metrics.export import fault_log_to_dict, report_to_dict
from repro.util import GiB, KiB, MiB
from repro.vm.vm import VmState


def tiny_cfg(seed=0, **overrides):
    defaults = dict(
        dt=0.1, seed=seed, page_size=4096,
        net_bandwidth_bps=10e6, net_latency_s=1e-4,
        ssd_read_bps=5e6, ssd_write_bps=3e6, ssd_mixed_efficiency=0.7,
        ssd_capacity_bytes=1 * GiB, vmd_server_bytes=1 * GiB,
        host_os_bytes=1 * MiB,
        migration=MigrationConfig(backlog_cap_bytes=2 * MiB,
                                  stopcopy_threshold_bytes=256 * KiB,
                                  max_rounds=30))
    defaults.update(overrides)
    return TestbedConfig(**defaults)


def make_lab(technique, vm_mib=16, host_mib=64, reservation_mib=32,
             busy=False, seed=0, **cfg_over):
    return make_single_vm_lab(
        technique, vm_mib * MiB, busy=busy,
        host_memory_bytes=host_mib * MiB,
        reservation_bytes=reservation_mib * MiB,
        busy_margin_bytes=0.5 * MiB,
        config=tiny_cfg(seed=seed, **cfg_over))


def run_with_faults(lab, schedule, start=2.0, limit=400.0, policy=None):
    injector = lab.world.attach_faults(schedule)
    lab.start_supervised_migration_at(
        start, policy=policy or RetryPolicy(max_retries=0))
    lab.world.run(until=start)
    lab.world.sim.run_until_event(lab.final, limit=limit)
    return lab.final.value, injector


# -- pre-copy: abort is a clean rollback ----------------------------------------

def test_precopy_dst_crash_aborts_vm_survives_at_source():
    lab = make_lab("pre-copy")
    schedule = FaultSchedule(
        [FaultSpec(FaultKind.HOST_CRASH, "dst", at=2.5)])
    report, _ = run_with_faults(lab, schedule)
    vm = lab.migrate_vm
    assert report.outcome is MigrationOutcome.ABORTED
    assert report.switch_time is None
    assert vm.state is VmState.RUNNING
    assert vm.host == "src"
    assert not vm.migrating
    # the rollback released the destination side entirely
    assert not lab.dst.memory.has_vm("vm0")
    assert not lab.dst.memory.has_vm("vm0.incoming")
    assert lab.src.memory.has_vm("vm0")


def test_precopy_retry_completes_after_transient_dst_crash():
    lab = make_lab("pre-copy")
    schedule = FaultSchedule(
        [FaultSpec(FaultKind.HOST_CRASH, "dst", at=2.5, duration=5.0)])
    report, _ = run_with_faults(
        lab, schedule, policy=RetryPolicy(max_retries=3, backoff_s=2.0))
    outcomes = [a.outcome for a in lab.supervisor.attempts]
    assert outcomes == [MigrationOutcome.RETRIED, MigrationOutcome.COMPLETED]
    assert report.outcome is MigrationOutcome.COMPLETED
    assert report.attempt == 1
    assert lab.migrate_vm.host == "dst"
    assert lab.migrate_vm.is_running


def test_precopy_src_crash_kills_vm():
    lab = make_lab("pre-copy")
    schedule = FaultSchedule(
        [FaultSpec(FaultKind.HOST_CRASH, "src", at=2.5)])
    report, injector = run_with_faults(lab, schedule)
    assert report.outcome is MigrationOutcome.FAILED
    assert lab.migrate_vm.state is VmState.TERMINATED
    assert injector.log.unavailable_vms() == ["vm0"]


def test_abort_after_switch_is_rejected():
    lab = make_lab("pre-copy")
    lab.run_until_migrated(start=2.0, limit=200.0)
    with pytest.raises(RuntimeError):
        # completed → no-op is fine; simulate a post-switch abort attempt
        lab.manager.report.outcome = None
        lab.manager.phase = type(lab.manager.phase).PUSH
        lab.manager.done._triggered = False
        lab.manager.abort("too late")


# -- teardown goes through Host: listing and memory bindings agree ------------

def assert_listing_matches_bindings(world):
    for name, host in sorted(world.hosts.items()):
        bound = {b.vm_name for b in host.memory.bindings}
        assert set(host.vms) == bound, name


@pytest.mark.parametrize("technique", ["pre-copy", "post-copy", "agile"])
def test_completed_migration_leaves_listing_and_bindings_agreeing(technique):
    lab = make_lab(technique)
    report, _ = run_with_faults(lab, FaultSchedule())
    assert report.outcome is MigrationOutcome.COMPLETED
    assert_listing_matches_bindings(lab.world)
    assert "vm0" in lab.dst.vms and "vm0" not in lab.src.vms


def test_failed_migration_leaves_listing_and_bindings_agreeing():
    lab = make_lab("post-copy")
    schedule = FaultSchedule(
        [FaultSpec(FaultKind.HOST_CRASH, "dst", at=2.5)])
    report, _ = run_with_faults(lab, schedule)
    assert report.outcome is MigrationOutcome.FAILED
    assert_listing_matches_bindings(lab.world)
    assert "vm0" not in lab.src.vms and "vm0" not in lab.dst.vms


# -- post-copy: the split-state window is fatal ---------------------------------

def test_postcopy_dst_crash_in_split_state_kills_vm():
    lab = make_lab("post-copy")
    schedule = FaultSchedule(
        [FaultSpec(FaultKind.HOST_CRASH, "dst", at=2.5)])
    report, injector = run_with_faults(lab, schedule)
    assert report.switch_time is not None          # crash landed post-switch
    assert report.outcome is MigrationOutcome.FAILED
    assert "split-state" in report.failure_reason
    assert lab.migrate_vm.state is VmState.TERMINATED
    # both sides fully released
    assert not lab.src.memory.has_vm("vm0")
    assert not lab.dst.memory.has_vm("vm0")
    assert injector.log.vm_unavailable_seconds(10.0) > 0


def test_postcopy_transient_nic_outage_stalls_then_completes():
    lab = make_lab("post-copy")
    schedule = FaultSchedule(
        [FaultSpec(FaultKind.NIC_DOWN, "src", at=2.5, duration=3.0)])
    report, _ = run_with_faults(lab, schedule)
    assert report.outcome is MigrationOutcome.COMPLETED
    # the outage sits inside the migration window, which must absorb it
    assert report.total_time > 3.0
    assert lab.migrate_vm.host == "dst"


# -- agile: donor crashes ------------------------------------------------------

def test_agile_survives_donor_crash_with_replication():
    lab = make_lab("agile", reservation_mib=8, vmd_servers=3,
                   vmd_replication=2)
    ns = lab.world.vmd.namespaces["vm0"]
    schedule = FaultSchedule(
        [FaultSpec(FaultKind.VMD_CRASH, "vmdsrv0", at=2.3,
                   lose_contents=True)])
    report, _ = run_with_faults(lab, schedule)
    assert report.outcome is MigrationOutcome.COMPLETED
    assert not ns.data_lost
    assert lab.migrate_vm.host == "dst"
    # background re-replication restores the lost copies on survivors
    lab.world.run(until=lab.world.now + 60.0)
    assert ns.repair_pending_bytes == 0.0
    assert ns.repaired_bytes > 0
    dead = lab.world.vmd.server_on("vmdsrv0")
    assert ns._stored[dead] == 0.0


def test_agile_single_copy_donor_loss_kills_vm():
    lab = make_lab("agile", reservation_mib=8)
    ns = lab.world.vmd.namespaces["vm0"]
    schedule = FaultSchedule(
        [FaultSpec(FaultKind.VMD_CRASH, "vmdsrv0", at=2.3,
                   lose_contents=True)])
    report, _ = run_with_faults(lab, schedule)
    assert ns.data_lost
    assert report.outcome is MigrationOutcome.FAILED
    assert lab.migrate_vm.state is VmState.TERMINATED


def test_agile_content_preserving_donor_outage_is_survivable():
    """A donor that merely reboots (contents preserved) stalls VMD reads
    until recovery; the migration completes once it returns."""
    lab = make_lab("agile", reservation_mib=8)
    schedule = FaultSchedule(
        [FaultSpec(FaultKind.VMD_CRASH, "vmdsrv0", at=2.3, duration=4.0)])
    report, _ = run_with_faults(lab, schedule)
    assert report.outcome is MigrationOutcome.COMPLETED
    assert lab.migrate_vm.host == "dst"


# -- retry policy ---------------------------------------------------------------

def test_retry_policy_backoff_shape():
    p = RetryPolicy(max_retries=5, backoff_s=2.0, backoff_factor=2.0,
                    backoff_cap_s=10.0)
    assert [p.delay(i) for i in range(5)] == [2.0, 4.0, 8.0, 10.0, 10.0]
    with pytest.raises(ValueError):
        RetryPolicy(max_retries=-1)


def test_permanent_dst_crash_retry_stalls_without_harming_vm():
    lab = make_lab("pre-copy")
    schedule = FaultSchedule(
        [FaultSpec(FaultKind.HOST_CRASH, "dst", at=2.5)])  # permanent
    lab.world.attach_faults(schedule)
    lab.start_supervised_migration_at(
        2.0, policy=RetryPolicy(max_retries=1, backoff_s=1.0))
    # attempt 0 aborts on the crash; attempt 1 re-registers against the
    # dead destination and stalls on the down NIC — the VM must stay
    # healthy at the source the whole time.
    lab.world.run(until=60.0)
    assert not lab.final.triggered
    assert lab.supervisor.attempts[0].outcome is MigrationOutcome.RETRIED
    assert lab.migrate_vm.state in (VmState.RUNNING, VmState.SUSPENDED)
    assert lab.migrate_vm.host == "src"


def test_supervisor_parks_until_destination_healthy():
    # The destination stays dead well past the blind-backoff window
    # (1 s backoff vs an 8 s outage): the old supervisor would relaunch
    # at ~3.6 s straight into the crash and burn its retry budget. With
    # a health tracker the aborted attempt parks, and the retry is only
    # issued once the destination has been UP again (revert + cooldown).
    from repro.sched import HostHealthTracker

    lab = make_lab("pre-copy")
    schedule = FaultSchedule(
        [FaultSpec(FaultKind.HOST_CRASH, "dst", at=2.5, duration=8.0)])
    lab.world.attach_faults(schedule)
    health = HostHealthTracker(lab.world, cooldown_s=2.0)
    lab.start_supervised_migration_at(
        2.0, policy=RetryPolicy(max_retries=3, backoff_s=1.0),
        health=health)
    lab.world.run(until=9.0)
    # deep inside the outage: exactly one (aborted) attempt, no retry
    # in flight — it is parked on the destination's health
    assert len(lab.supervisor.attempts) == 1
    assert lab.supervisor.attempts[0].outcome is MigrationOutcome.RETRIED
    assert lab.supervisor.parked.get("dst")
    lab.world.sim.run_until_event(lab.final, limit=100.0)
    report = lab.final.value
    assert report.outcome is MigrationOutcome.COMPLETED
    assert report.attempt == 1
    # the retry waited for revert (10.5 s) plus the cooldown
    assert report.start_time >= 2.5 + 8.0 + 2.0


# -- export + determinism -------------------------------------------------------

def test_report_export_includes_outcome_as_string():
    lab = make_lab("pre-copy")
    schedule = FaultSchedule(
        [FaultSpec(FaultKind.HOST_CRASH, "dst", at=2.5)])
    report, injector = run_with_faults(lab, schedule)
    d = report_to_dict(report)
    assert d["outcome"] == "aborted"
    assert isinstance(d["failure_reason"], str)
    fd = fault_log_to_dict(injector.log, until=10.0)
    assert fd["events"][0]["kind"] == "host-crash"
    assert fd["vm_unavailable_seconds"] == 0.0  # the VM survived


def test_same_seed_same_fault_timeline_and_report():
    def run_once():
        lab = make_lab("post-copy", seed=5)
        schedule = FaultSchedule(
            [FaultSpec(FaultKind.NIC_DEGRADED, "src", at=2.4,
                       duration=2.0, severity=0.3),
             FaultSpec(FaultKind.SSD_DEGRADED, "ssd.src", at=3.0,
                       duration=1.0, severity=0.5)])
        report, injector = run_with_faults(lab, schedule)
        return injector.log.describe(), report_to_dict(report)
    (log1, rep1), (log2, rep2) = run_once(), run_once()
    assert log1 == log2
    assert rep1 == rep2
