"""End-to-end tests of the three migration techniques on small worlds."""

import pytest

from repro.cluster.scenarios import TestbedConfig, make_single_vm_lab
from repro.core.base import MigrationConfig
from repro.util import GiB, KiB, MiB


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


# -- pre-copy -------------------------------------------------------------------

def test_precopy_idle_vm_full_transfer():
    lab = make_lab("pre-copy", vm_mib=16, reservation_mib=32)
    lab.run_until_migrated(start=2.0, limit=200.0)
    r = lab.report
    assert r.technique == "pre-copy"
    assert r.end_time is not None
    # the whole 16 MiB goes over the wire (one round, nothing dirtied)
    assert r.precopy_bytes + r.stopcopy_bytes == pytest.approx(16 * MiB,
                                                               rel=0.02)
    assert r.rounds == 1
    # ~16 MiB at 10 MB/s ≈ 1.7 s of transfer
    assert 1.0 < r.total_time < 5.0
    assert r.downtime is not None and r.downtime < 1.0


def test_precopy_moves_vm_and_frees_source():
    lab = make_lab("pre-copy", vm_mib=16, reservation_mib=32)
    lab.run_until_migrated(start=2.0, limit=200.0)
    vm = lab.migrate_vm
    assert vm.host == "dst"
    assert vm.is_running
    assert not lab.src.memory.has_vm("vm0")
    assert lab.dst.memory.has_vm("vm0")
    # the destination copy holds every allocated page
    assert vm.pages.resident_pages() == vm.n_pages


def test_precopy_swapped_pages_read_from_device():
    # VM 32 MiB with a 16 MiB reservation: half its memory is on swap
    lab = make_lab("pre-copy", vm_mib=32, reservation_mib=16)
    assert lab.migrate_vm.pages.swapped_bytes() == 16 * MiB
    lab.run_until_migrated(start=2.0, limit=400.0)
    r = lab.report
    mgr = lab.manager
    # all 32 MiB transferred; the swapped half was read from the SSD
    assert r.precopy_bytes + r.stopcopy_bytes == pytest.approx(32 * MiB,
                                                               rel=0.02)
    assert mgr.src_read_q.total_granted >= 16 * MiB * 0.95
    # device reads at 5 MB/s bound the swapped half: ≥ ~3.2 s just for it
    assert r.total_time > 16 * MiB / 5e6


def test_precopy_busy_vm_retransmits_dirty_pages():
    lab = make_lab("pre-copy", vm_mib=24, host_mib=64, reservation_mib=8,
                   busy=True)
    lab.run_until_migrated(start=5.0, limit=600.0)
    r = lab.report
    allocated = 23.5 * MiB  # dataset = vm - 0.5 MiB... dataset=vm-500MiB floor
    assert r.rounds >= 2
    assert r.pages_sent * 4096 > lab.migrate_vm.pages.allocated_pages() * 4096


# -- post-copy -------------------------------------------------------------------

def test_postcopy_switches_immediately():
    lab = make_lab("post-copy", vm_mib=16, reservation_mib=32)
    lab.run_until_migrated(start=2.0, limit=200.0)
    r = lab.report
    assert r.switch_time is not None
    assert r.switch_time - r.start_time < 1.5  # CPU state only
    assert r.downtime < 1.5
    assert r.end_time > r.switch_time


def test_postcopy_transfers_each_page_once():
    lab = make_lab("post-copy", vm_mib=16, reservation_mib=32)
    lab.run_until_migrated(start=2.0, limit=200.0)
    r = lab.report
    assert r.push_bytes + r.demand_bytes == pytest.approx(16 * MiB, rel=0.02)
    assert lab.migrate_vm.host == "dst"
    assert lab.migrate_vm.pages.resident_pages() == lab.migrate_vm.n_pages


def test_postcopy_busy_vm_demand_fetches():
    lab = make_lab("post-copy", vm_mib=24, host_mib=64, reservation_mib=8,
                   busy=True)
    lab.run_until_migrated(start=5.0, limit=600.0, settle=5.0)
    r = lab.report
    assert r.pages_demand_fetched > 0
    assert r.demand_bytes > 0
    # no retransmission: total page data ≈ allocated bytes
    allocated_bytes = 23.5 * MiB
    assert r.push_bytes + r.demand_bytes <= allocated_bytes * 1.05
    # workload keeps running at the destination
    tput = lab.world.recorder.series("vm0.throughput")
    after = tput.between(r.end_time, r.end_time + 5.0)
    assert after.mean() > 0


def test_postcopy_workload_degrades_then_recovers():
    lab = make_lab("post-copy", vm_mib=24, host_mib=64, reservation_mib=24,
                   busy=True)
    lab.run_until_migrated(start=10.0, limit=600.0, settle=20.0)
    r = lab.report
    tput = lab.world.recorder.series("vm0.throughput")
    before = tput.between(5.0, 10.0).mean()
    during = tput.between(r.switch_time, r.switch_time + 2.0).mean()
    after = tput.between(r.end_time + 10.0, r.end_time + 20.0).mean()
    assert during < 0.7 * before  # early post-copy phase is slow
    assert after > 0.7 * before   # and recovers once pages arrive


# -- Agile ---------------------------------------------------------------------

def test_agile_skips_cold_pages():
    lab = make_lab("agile", vm_mib=32, reservation_mib=16)
    vm = lab.migrate_vm
    n_swapped = vm.pages.swapped_pages()
    assert n_swapped * 4096 == 16 * MiB
    lab.run_until_migrated(start=2.0, limit=200.0)
    r = lab.report
    # only the resident half moves as page data
    page_data = r.precopy_bytes + r.stopcopy_bytes + r.push_bytes
    assert page_data == pytest.approx(16 * MiB, rel=0.05)
    assert r.pages_skipped_swapped == n_swapped
    # the destination sees the cold pages as swapped (offset table)
    assert vm.pages.swapped_pages() == n_swapped
    assert vm.pages.resident_pages() == vm.n_pages - n_swapped


def test_agile_faster_than_baselines_under_swap_pressure():
    times, bytes_ = {}, {}
    for tech in ("pre-copy", "post-copy", "agile"):
        lab = make_lab(tech, vm_mib=32, reservation_mib=16, seed=3)
        lab.run_until_migrated(start=2.0, limit=600.0)
        times[tech] = lab.report.total_time
        bytes_[tech] = lab.report.total_bytes
    # on an idle VM post-copy ≈ pre-copy (everything moves once); Agile
    # wins clearly by skipping the swapped half
    assert times["agile"] < 0.7 * times["post-copy"]
    assert times["post-copy"] <= times["pre-copy"] * 1.05
    assert bytes_["agile"] < 0.7 * bytes_["post-copy"]
    assert bytes_["post-copy"] <= bytes_["pre-copy"] * 1.05


def test_agile_destination_reads_cold_pages_from_vmd():
    lab = make_lab("agile", vm_mib=24, host_mib=64, reservation_mib=8,
                   busy=True)
    vm = lab.migrate_vm
    lab.run_until_migrated(start=5.0, limit=600.0, settle=30.0)
    r = lab.report
    # after settling at the destination the workload faulted cold pages
    # in from the VMD: swap-in accounting exists on the dst binding
    cg = lab.dst.memory.binding("vm0").cgroup
    assert cg.swap_in_bytes_total > 0
    tput = lab.world.recorder.series("vm0.throughput")
    assert tput.between(r.end_time, r.end_time + 30.0).mean() > 0


def test_agile_downtime_small():
    lab = make_lab("agile", vm_mib=32, reservation_mib=16)
    lab.run_until_migrated(start=2.0, limit=200.0)
    assert lab.report.downtime < 1.0


def test_agile_leaves_no_source_state():
    lab = make_lab("agile", vm_mib=32, reservation_mib=16)
    lab.run_until_migrated(start=2.0, limit=200.0)
    assert not lab.src.memory.has_vm("vm0")
    assert "vm0" not in lab.src.vms
    # the VMD namespace still holds the cold pages for the destination
    ns = lab.world.vmd.namespaces["vm0"]
    assert ns.used_bytes >= 16 * MiB * 0.95


def test_done_event_carries_report():
    lab = make_lab("agile", vm_mib=16, reservation_mib=32)
    lab.start_migration_at(1.0)
    lab.world.run(until=1.0)
    value = lab.world.sim.run_until_event(lab.manager.done, limit=300.0)
    assert value is lab.report


def test_migration_deterministic():
    reports = []
    for _ in range(2):
        lab = make_lab("agile", vm_mib=24, host_mib=64, reservation_mib=8,
                       busy=True, seed=7)
        lab.run_until_migrated(start=5.0, limit=600.0)
        r = lab.report
        reports.append((r.total_time, r.total_bytes, r.pages_sent))
    assert reports[0] == reports[1]


def test_double_start_rejected():
    lab = make_lab("pre-copy", vm_mib=16, reservation_mib=32)
    lab.start_migration_at(1.0)
    lab.world.run(until=1.5)
    with pytest.raises(RuntimeError):
        lab.manager.start()
