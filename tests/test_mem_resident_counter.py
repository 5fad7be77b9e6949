"""Host resident totals are running counters: conservation checks.

``HostMemoryManager.total_resident_bytes()`` returns a counter that the
bound page sets move on every residency transition. After every tick of
each scenario below, every host's counter must equal the sum of
``pages.resident_bytes()`` over its bindings: under eviction pressure,
through a 2 GiB migration by each engine, Scatter-Gather, a clone's
post-copy hydration, a migration failed by ``fail_vm`` and a host
crash.
"""

from functools import partial

import numpy as np
import pytest

from repro.clone import CloneConfig, CloneManager
from repro.cluster.scenarios import (
    TestbedConfig,
    make_pressure_scenario,
    make_single_vm_lab,
)
from repro.cluster.setup import preload_dataset
from repro.cluster.world import World
from repro.core import ScatterGatherMigration
from repro.core.base import MigrationConfig, MigrationManager
from repro.faults import FaultKind, FaultSchedule, FaultSpec, RetryPolicy
from repro.mem.pages import PageSet
from repro.util import GiB, KiB, MiB
from repro.vm.vm import VmState


class CounterAudit:
    """Checks every host's resident counter at the end of every tick."""

    def __init__(self, world):
        self.world = world
        self.ticks = 0
        world.engine.add_participant(self, order=10 ** 9)

    def pre_tick(self, dt: float) -> None:
        pass

    def commit_tick(self, dt: float) -> None:
        for name, host in sorted(self.world.hosts.items()):
            memory = host.memory
            want = sum(b.pages.resident_bytes() for b in memory.bindings)
            assert memory.total_resident_bytes() == want, \
                f"{name} @{self.world.now:g}s"
        self.ticks += 1


def config(**overrides):
    defaults = dict(
        dt=0.1, page_size=64 * KiB, net_bandwidth_bps=400e6,
        net_latency_s=1e-4, ssd_read_bps=200e6, ssd_write_bps=150e6,
        ssd_capacity_bytes=8 * GiB, vmd_server_bytes=8 * GiB,
        host_os_bytes=1 * MiB,
        migration=MigrationConfig(backlog_cap_bytes=32 * MiB,
                                  stopcopy_threshold_bytes=4 * MiB,
                                  max_rounds=30))
    defaults.update(overrides)
    return TestbedConfig(**defaults)


def big_lab(technique):
    """A busy 2 GiB VM whose cgroup holds 1.5 GiB: it swaps while it
    migrates."""
    return make_single_vm_lab(
        technique, 2 * GiB, busy=True, host_memory_bytes=3 * GiB,
        reservation_bytes=1.5 * GiB, busy_margin_bytes=64 * MiB,
        config=config())


def small_lab(technique):
    return make_single_vm_lab(
        technique, 16 * MiB, busy=False, host_memory_bytes=64 * MiB,
        reservation_bytes=32 * MiB, busy_margin_bytes=0.5 * MiB,
        config=config(page_size=4096, net_bandwidth_bps=10e6))


def fail_vm_calls(monkeypatch) -> list:
    """Records each ``fail_vm`` that fails a migration still running."""
    calls = []
    original = MigrationManager.fail_vm

    def fail_vm(mgr, reason=""):
        if not mgr.done.triggered:
            calls.append(reason)
        return original(mgr, reason)

    monkeypatch.setattr(MigrationManager, "fail_vm", fail_vm)
    return calls


def test_counter_follows_every_transition_of_a_bound_set():
    world = World(dt=0.1)
    host = world.add_host("h0", 64 * MiB, host_os_bytes=1 * MiB)
    world.add_vmd([("vmd0", 64 * MiB)])
    vm = world.add_vm("vm0", 8 * MiB, "h0", page_size=4096)
    host.place_vm(vm, 8 * MiB, world.vmd.create_namespace("vm0"))
    memory, pages = host.memory, vm.pages
    preload_dataset(vm, memory, 8 * MiB)
    assert memory.total_resident_bytes() == 8 * MiB
    idx = pages.present_indices()
    pages.swap_out(idx[:10])
    pages.drop(idx[10:20])
    pages.release_resident(idx[20:30])
    assert memory.total_resident_bytes() == pages.resident_bytes() \
        == 8 * MiB - 30 * 4096
    host.release_vm("vm0")
    assert memory.total_resident_bytes() == 0


def test_a_set_bound_twice_counts_once_per_binding():
    world = World(dt=0.1)
    a = world.add_host("a", 64 * MiB, host_os_bytes=1 * MiB).memory
    b = world.add_host("b", 64 * MiB, host_os_bytes=1 * MiB).memory
    pages = PageSet(16, 4096)
    pages.make_resident(np.arange(0, 4), tick=0)
    pages.bind(a)
    pages.bind(b)
    pages.bind(b)
    pages.make_resident(np.arange(4, 8), tick=1)
    assert (a.total_resident_bytes(), b.total_resident_bytes()) \
        == (8 * 4096, 16 * 4096)
    pages.unbind(b)
    pages.swap_out(np.arange(0, 2))
    assert (a.total_resident_bytes(), b.total_resident_bytes()) \
        == (6 * 4096, 6 * 4096)


def test_pressure_run_with_eviction():
    lab = make_pressure_scenario(
        "agile", "oltp", n_vms=2, vm_memory_bytes=32 * MiB,
        host_memory_bytes=40 * MiB, reservation_bytes=12 * MiB,
        oltp_dataset_bytes=24 * MiB, config=config(page_size=4096))
    audit = CounterAudit(lab.world)
    lab.world.run(until=4.0)
    assert audit.ticks >= 39
    assert any(vm.pages.swapped_pages() > 0 for vm in lab.vms)


@pytest.mark.parametrize("technique", ["pre-copy", "post-copy", "agile"])
def test_2gib_migration(technique):
    lab = big_lab(technique)
    audit = CounterAudit(lab.world)
    lab.run_until_migrated(start=1.0, limit=300.0, settle=0.5)
    assert lab.report.end_time is not None
    assert lab.migrate_vm.host == "dst"
    assert lab.src.memory.total_resident_bytes() == 0
    assert audit.ticks > 20


def test_scatter_gather_migration():
    lab = small_lab("scatter-gather")
    world = lab.world
    lab.engine = partial(ScatterGatherMigration, gather_bps=2e6)
    audit = CounterAudit(world)
    lab.run_until_migrated(start=1.0, limit=300.0, settle=1.0)
    assert lab.report.source_free_time is not None
    assert audit.ticks > 20


def test_clone_hydration():
    world = World(dt=0.1, net_bandwidth_bps=40e6)
    for i in range(2):
        world.add_host(f"h{i}", 64 * MiB, host_os_bytes=1 * MiB)
    world.add_vmd([("vmd0", 256 * MiB), ("vmd1", 256 * MiB)],
                  placement_chunk_bytes=1 * MiB)
    world.attach_faults(FaultSchedule())
    parent = world.add_vm("parent", 8 * MiB, "h0")
    world.hosts["h0"].place_vm(parent, 8 * MiB,
                               world.vmd.create_namespace("parent"))
    preload_dataset(parent, world.manager_of("h0"), 8 * MiB)
    clones = CloneManager(world, config=CloneConfig(dirty_fraction=0.25))
    replica = clones.boot_replica("c0", "h1", clones.snapshot("parent"))
    audit = CounterAudit(world)
    world.run(until=20.0)
    assert replica.report.done_time is not None
    assert audit.ticks >= 199


def test_migration_failed_by_fail_vm(monkeypatch):
    calls = fail_vm_calls(monkeypatch)
    lab = small_lab("post-copy")
    world = lab.world
    world.attach_faults(FaultSchedule(
        [FaultSpec(FaultKind.HOST_CRASH, "dst", at=2.5)]))
    audit = CounterAudit(world)
    lab.start_supervised_migration_at(
        2.0, policy=RetryPolicy(max_retries=0))
    world.run(until=6.0)
    assert calls
    assert lab.migrate_vm.state is VmState.TERMINATED
    assert audit.ticks >= 59


def test_host_crash():
    lab = small_lab("agile")
    world = lab.world
    world.attach_faults(FaultSchedule(
        [FaultSpec(FaultKind.HOST_CRASH, "src", at=1.5)]))
    audit = CounterAudit(world)
    world.run(until=4.0)
    assert lab.migrate_vm.state is VmState.TERMINATED
    assert audit.ticks >= 39
