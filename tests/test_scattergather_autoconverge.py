"""Tests for the extension techniques: Scatter-Gather migration and
pre-copy auto-converge."""

from functools import partial

import numpy as np
import pytest

from repro.cluster.scenarios import TestbedConfig, make_single_vm_lab
from repro.core import PrecopyMigration, ScatterGatherMigration
from repro.core.base import MigrationConfig
from repro.faults import MigrationSupervisor, RetryPolicy
from repro.util import GiB, KiB, MiB


def tiny_cfg(seed=0, **overrides):
    defaults = dict(
        dt=0.1, seed=seed, page_size=4096,
        net_bandwidth_bps=10e6, net_latency_s=1e-4,
        ssd_read_bps=5e6, ssd_write_bps=3e6,
        ssd_capacity_bytes=1 * GiB, vmd_server_bytes=1 * GiB,
        host_os_bytes=1 * MiB,
        migration=MigrationConfig(backlog_cap_bytes=2 * MiB,
                                  stopcopy_threshold_bytes=256 * KiB))
    defaults.update(overrides)
    return TestbedConfig(**defaults)


def sg_lab(busy=False, gather_bps=2e6, vm_mib=32, reservation_mib=16,
           seed=0):
    lab = make_single_vm_lab("scatter-gather", vm_mib * MiB, busy=busy,
                             host_memory_bytes=64 * MiB,
                             reservation_bytes=reservation_mib * MiB,
                             busy_margin_bytes=0.5 * MiB,
                             config=tiny_cfg(seed=seed))
    lab.engine = partial(ScatterGatherMigration, gather_bps=gather_bps)
    return lab


def test_scatter_frees_source_and_stages_pages():
    lab = sg_lab()
    lab.run_until_migrated(start=2.0, limit=300.0)
    r = lab.report
    assert r.source_free_time is not None
    assert r.end_time == r.source_free_time
    assert not lab.src.memory.has_vm("vm0")
    # the resident 16 MiB were scattered; the cold 16 MiB skipped
    assert r.scatter_bytes == pytest.approx(16 * MiB, rel=0.02)
    assert r.pages_skipped_swapped == 16 * MiB // 4096
    # no page data crossed the direct channel (metadata only)
    assert r.precopy_bytes == 0.0 and r.push_bytes == 0.0
    assert r.metadata_bytes < 6 * MiB


def test_scatter_faster_than_direct_when_pages_cold():
    """Scatter runs at source-NIC speed independent of the destination:
    the source is free in about resident_bytes / NIC time."""
    lab = sg_lab()
    lab.run_until_migrated(start=2.0, limit=300.0)
    r = lab.report
    # 16 MiB at 10 MB/s ≈ 1.7 s (plus CPU-state handover)
    assert r.source_free_time - r.start_time < 4.0


def test_gather_completes_in_background():
    # reservation covers the whole VM so the gather can finish
    lab = sg_lab(gather_bps=4e6, reservation_mib=40)
    lab.run_until_migrated(start=2.0, limit=300.0, settle=20.0)
    vm = lab.migrate_vm
    # after settling, the background gather pulled everything in
    assert vm.pages.swapped_pages() == 0
    assert vm.pages.resident_pages() == vm.n_pages
    assert lab.report.gather_bytes > 0
    # gather traffic is reported separately from migration transfer
    assert lab.report.gather_bytes not in (lab.report.total_bytes,)


def test_no_gather_leaves_cold_pages_on_vmd():
    lab = sg_lab(gather_bps=None, reservation_mib=40)
    lab.run_until_migrated(start=2.0, limit=300.0, settle=10.0)
    vm = lab.migrate_vm
    assert vm.pages.swapped_pages() > 0  # idle VM: nothing faults them in
    assert lab.report.gather_bytes == 0.0


def gather_run(supervised, reservation_mib):
    """Scatter-gather a 32 MiB idle VM at t=2 s and run to t=62 s, either
    through a supervisor or registered with the tick engine directly
    (the reference: registered for the whole run, as no launch path
    does). Returns the lab and the manager."""
    lab = sg_lab(reservation_mib=reservation_mib)
    world = lab.world
    made = []

    def factory():
        made.append(ScatterGatherMigration(
            world.sim, world.network, lab.src, lab.dst, lab.migrate_vm,
            world.recorder, config=lab.config.migration, gather_bps=2e6))
        return made[-1]

    def direct():
        reference = factory()
        world.engine.add_participant(reference, order=0)
        reference.start()

    if supervised:
        supervisor = MigrationSupervisor(
            world, policy=RetryPolicy(max_retries=0))
        world.sim.call_at(2.0, supervisor.dispatch, factory)
    else:
        world.sim.call_at(2.0, direct)
    world.run(until=62.0)
    return lab, made[0]


def test_supervised_scatter_gather_keeps_gathering():
    """The supervisor unregisters a manager when its tick work ends, not
    when its report does: scatter-gather's gather runs on after the
    source is free (and after ``done``), until the VM is whole at the
    destination or its reservation is full."""
    # 16 MiB reservation: the gather fills the cgroup, then stops
    (sup_lab, sup), (ref_lab, ref) = (gather_run(flag, 16)
                                      for flag in (True, False))
    assert ref.report.gather_bytes == pytest.approx(16 * MiB, rel=0.02)
    assert sup.report.gather_bytes == ref.report.gather_bytes
    for field in ("present", "swapped", "swap_clean"):
        assert np.array_equal(getattr(sup_lab.migrate_vm.pages, field),
                              getattr(ref_lab.migrate_vm.pages, field))
    # hydrated to the reservation: the cold tail stays on the device,
    # the lane is closed and the manager has left the tick engine
    assert sup_lab.migrate_vm.pages.swapped_pages() > 0
    assert not sup._gathering and not sup.gather_q.active
    assert sup.ticks_done.triggered
    with pytest.raises(ValueError):
        sup_lab.world.engine.remove_participant(sup)
    # a reservation that holds the whole VM: the gather ends once every
    # page is resident
    lab, sup = gather_run(True, 40)
    assert lab.migrate_vm.pages.swapped_pages() == 0
    assert not sup._gathering and not sup.gather_q.active
    assert sup.ticks_done.triggered
    with pytest.raises(ValueError):
        lab.world.engine.remove_participant(sup)


def test_busy_vm_demand_faults_during_scatter():
    lab = sg_lab(busy=True, vm_mib=24, reservation_mib=8, gather_bps=2e6)
    lab.run_until_migrated(start=5.0, limit=600.0, settle=10.0)
    r = lab.report
    assert r.source_free_time is not None
    # the workload kept running at the destination
    tput = lab.world.recorder.series("vm0.throughput")
    assert tput.between(r.end_time, r.end_time + 10.0).mean() > 0


def test_scatter_gather_requires_vmd_backend():
    lab = make_single_vm_lab("pre-copy", 16 * MiB, busy=False,
                             host_memory_bytes=64 * MiB,
                             reservation_bytes=32 * MiB,
                             config=tiny_cfg())
    with pytest.raises(TypeError):
        ScatterGatherMigration(
            lab.world.sim, lab.world.network, lab.src, lab.dst,
            lab.migrate_vm, lab.world.recorder,
            dst_backend=lab.dst_backend_for_migration,
            config=lab.config.migration)


# -- auto-converge ---------------------------------------------------------------

def autoconverge_lab(auto, seed=0):
    lab = make_single_vm_lab("pre-copy", 24 * MiB, busy=True,
                             host_memory_bytes=64 * MiB,
                             reservation_bytes=24 * MiB,
                             busy_margin_bytes=0.5 * MiB,
                             config=tiny_cfg(
                                 seed=seed,
                                 migration=MigrationConfig(
                                     backlog_cap_bytes=2 * MiB,
                                     stopcopy_threshold_bytes=64 * KiB,
                                     max_rounds=12)))

    # a write-everywhere workload: pre-copy cannot converge on its own
    from repro.cluster.scenarios import scale_params_to_page
    from repro.workloads.kv import ycsb_redis_params
    wl = lab.workloads[0]
    wl.params = scale_params_to_page(
        ycsb_redis_params(write_fraction=1.0, write_region_fraction=1.0),
        4096)

    lab.engine = partial(PrecopyMigration, auto_converge=auto)
    return lab


def test_auto_converge_throttles_and_reduces_retransmission():
    plain = autoconverge_lab(False, seed=3)
    plain.run_until_migrated(start=5.0, limit=600.0)
    throttled = autoconverge_lab(True, seed=3)
    throttled.run_until_migrated(start=5.0, limit=600.0)
    # throttling lets pre-copy converge with less data on the wire
    assert (throttled.report.total_bytes < plain.report.total_bytes)
    # ... at the cost of guest performance during migration (the §VI
    # criticism): fewer ops completed while migrating
    wl_plain = plain.workload_of(plain.migrate_vm)
    wl_thr = throttled.workload_of(throttled.migrate_vm)
    assert wl_thr.total_ops < wl_plain.total_ops
    # the brake is lifted after migration
    assert wl_thr.cpu_throttle == 1.0
