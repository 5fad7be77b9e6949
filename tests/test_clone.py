"""repro.clone: snapshot capture, post-copy fork hydration, CoW
isolation, leak-free teardown, and the donor/host fault matrix."""

import numpy as np
import pytest

from repro.clone import CloneConfig, CloneManager
from repro.cluster.setup import preload_dataset
from repro.cluster.world import World
from repro.faults import FaultKind, FaultSchedule, FaultSpec
from repro.util import MiB

PARENT_BYTES = 8 * MiB


def build(replication=1, schedule=None, tracer=None, vmd_servers=2,
          **clone_overrides):
    """A 3-host world with a preloaded parent VM ready to clone."""
    world = World(dt=0.1, net_bandwidth_bps=40e6, tracer=tracer)
    for i in range(3):
        world.add_host(f"h{i}", 64 * MiB, host_os_bytes=1 * MiB)
    world.add_vmd([(f"vmd{k}", 256 * MiB) for k in range(vmd_servers)],
                  placement_chunk_bytes=1 * MiB)
    world.attach_faults(schedule if schedule is not None
                        else FaultSchedule())
    parent = world.add_vm("parent", PARENT_BYTES, "h0")
    ns = world.vmd.create_namespace("parent")
    world.hosts["h0"].place_vm(parent, PARENT_BYTES, ns)
    preload_dataset(parent, world.manager_of("h0"), PARENT_BYTES)
    manager = CloneManager(world, config=CloneConfig(
        replication=replication, **clone_overrides))
    return world, manager


def engine_load(world):
    """(participants, arbiters) registered — the leak meter. The active
    set and the parked objects split the registered ones between them."""
    engine = world.engine
    registered = engine._participants.keys() | engine._arbiters.keys()
    active = {id(obj) for _, _, obj in
              engine._active_participants + engine._active_arbiters}
    assert active | engine._parked.keys() == registered
    assert not active & engine._parked.keys()
    return (len(engine._participants), len(engine._arbiters))


# -- snapshot capture ---------------------------------------------------------

def test_instant_snapshot_stages_the_whole_template():
    world, mgr = build()
    image = mgr.snapshot("parent", instant=True)
    assert image.ready
    assert image.template_bytes == pytest.approx(PARENT_BYTES)
    assert np.array_equal(image.staged, image.template)
    # the staged bytes actually live on the VMD
    assert image.namespace.used_bytes == pytest.approx(PARENT_BYTES)
    # idempotent while the image is usable
    assert mgr.snapshot("parent") is image
    assert mgr.counters["snapshots"] == 1


def test_streamed_snapshot_scatters_and_reports_ready():
    world, mgr = build()
    image = mgr.snapshot("parent")
    assert not image.ready
    world.run(until=10.0)
    assert image.ready
    assert image.scatter_bytes == pytest.approx(PARENT_BYTES)
    assert image.namespace.used_bytes == pytest.approx(PARENT_BYTES)
    assert any(line.startswith(f"image-ready {image.name}")
               for line in mgr.log)
    # the snapshotter removed itself from the engine
    assert image.snapshotter is None


def test_snapshot_of_terminated_parent_is_rejected():
    world, mgr = build()
    world.vms["parent"].terminate()
    with pytest.raises(RuntimeError):
        mgr.snapshot("parent")


# -- fork + hydration ---------------------------------------------------------

def test_replica_serves_after_hot_set_then_fully_hydrates():
    world, mgr = build()
    image = mgr.snapshot("parent", instant=True)
    rep = mgr.boot_replica("c0", "h1", image)
    assert mgr.counters["forks"] == 1
    world.run(until=1.0)
    r = rep.report
    assert r.serving_time is not None
    # serving needed only the hot head, not the full image
    assert r.demand_bytes < PARENT_BYTES / 2
    world.run(until=30.0)
    assert r.done_time is not None
    pages = world.vms["c0"].pages
    pages.check_invariants()
    assert pages.swapped_pages() == 0
    # byte conservation: demand + gather covered the whole template
    assert r.demand_bytes + r.gather_bytes \
        >= image.template_bytes - r.cow_bytes


def test_fork_races_a_streaming_snapshot_via_parent_umem():
    """Replicas forked mid-stream demand-fetch un-staged hot pages from
    the live parent instead of waiting for the scatter to finish."""
    world, mgr = build()
    image = mgr.snapshot("parent")          # streaming, not ready
    rep = mgr.boot_replica("c0", "h1", image)
    assert rep.fetcher.umem is not None
    world.run(until=2.0)
    r = rep.report
    assert r.serving_time is not None
    assert r.parent_demand_bytes > 0        # the umem leg actually ran
    world.run(until=30.0)
    assert rep.fetcher.umem is None         # closed once nothing is owed
    assert r.done_time is not None


def test_incomplete_image_with_dead_parent_cannot_fork():
    world, mgr = build()
    image = mgr.snapshot("parent")          # streaming
    world.vms["parent"].terminate()
    with pytest.raises(RuntimeError):
        mgr.boot_replica("c0", "h1", image)


# -- CoW semantics ------------------------------------------------------------

def test_cow_privatizes_dirty_pages_into_the_overlay():
    world, mgr = build(dirty_fraction=0.25)
    image = mgr.snapshot("parent", instant=True)
    rep = mgr.boot_replica("c0", "h1", image)
    world.run(until=30.0)
    r = rep.report
    assert r.cow_bytes > 0
    # privatized bytes landed in the replica's overlay, not the image
    assert rep.overlay.used_bytes > 0
    assert image.namespace.used_bytes == pytest.approx(PARENT_BYTES)


def test_sibling_teardown_never_corrupts_the_shared_image():
    world, mgr = build(dirty_fraction=0.25)
    image = mgr.snapshot("parent", instant=True)
    mgr.boot_replica("c0", "h1", image)
    c1 = mgr.boot_replica("c1", "h2", image)
    world.run(until=5.0)
    mgr.release_replica("c0")               # one sibling leaves early
    assert "c0" not in world.vms
    # the shared image is untouched; the survivor finishes hydrating
    assert image.namespace.used_bytes == pytest.approx(PARENT_BYTES)
    world.run(until=40.0)
    assert c1.report.done_time is not None
    pages = world.vms["c1"].pages
    pages.check_invariants()
    assert pages.swapped_pages() == 0


# -- leak-free teardown (acceptance criterion) --------------------------------

def test_clone_storm_teardown_restores_pre_clone_state():
    world, mgr = build(dirty_fraction=0.1)
    vmd = world.vmd
    base_used = sum(ns.used_bytes for ns in vmd.namespaces.values())
    base_load = engine_load(world)
    base_namespaces = set(vmd.namespaces)

    image = mgr.snapshot("parent", instant=True)
    names = [f"c{i}" for i in range(4)]
    for i, name in enumerate(names):
        mgr.boot_replica(name, f"h{1 + i % 2}", image)
    world.run(until=5.0)
    # release in arbitrary (non-boot) order, image ref dropped mid-way
    for name in (names[2], names[0]):
        mgr.release_replica(name)
    mgr.drop_image("parent")
    for name in (names[3], names[1]):
        mgr.release_replica(name)
    world.run(until=6.0)

    assert not mgr.replicas
    assert set(vmd.namespaces) == base_namespaces
    assert sum(ns.used_bytes for ns in vmd.namespaces.values()) \
        == pytest.approx(base_used)
    assert engine_load(world) == base_load
    # planner-free world: no reservations to leak; hosts hold only the
    # parent's memory again
    for name in names:
        assert name not in world.vms
        for host in world.hosts.values():
            assert not host.memory.has_vm(name)
    assert mgr.counters["released"] == 4


# -- fault matrix -------------------------------------------------------------

def test_host_crash_fails_only_the_replicas_on_it():
    schedule = FaultSchedule(
        [FaultSpec(FaultKind.HOST_CRASH, "h1", at=1.0)])
    world, mgr = build(schedule=schedule)
    image = mgr.snapshot("parent", instant=True)
    a = mgr.boot_replica("ca", "h1", image)
    b = mgr.boot_replica("cb", "h2", image)
    world.run(until=30.0)
    assert a.report.failed
    assert a.report.failure_reason == "host-crash"
    assert "ca" not in mgr.replicas
    assert not b.report.failed
    assert b.report.done_time is not None


def test_single_copy_donor_loss_fails_only_dependent_replicas():
    """A content-losing donor crash mid-clone kills exactly the
    replicas that still needed the image — a hydrated sibling and the
    cluster itself carry on."""
    schedule = FaultSchedule([FaultSpec(
        FaultKind.VMD_CRASH, "vmd0", at=3.0, lose_contents=True)])
    world, mgr = build(schedule=schedule, gather_bps=16e6,
                       dirty_fraction=0.0)
    image = mgr.snapshot("parent", instant=True)
    fast = mgr.boot_replica("cfast", "h1", image)
    world.run(until=2.9)
    assert fast.report.done_time is not None    # fully hydrated early
    slow = mgr.boot_replica("cslow", "h2", image)
    world.run(until=10.0)
    assert slow.report.failed
    assert slow.report.failure_reason == "image-data-lost"
    assert not fast.report.failed
    assert world.vms["cfast"].is_running
    # the dead image was retired: a later fork gets a fresh capture
    assert mgr.image_for("parent") is None


def test_replicated_image_survives_donor_loss_and_reprotects():
    schedule = FaultSchedule([FaultSpec(
        FaultKind.VMD_CRASH, "vmd0", at=2.0, lose_contents=True)])
    world, mgr = build(replication=2, schedule=schedule, vmd_servers=3)
    image = mgr.snapshot("parent", instant=True)
    rep = mgr.boot_replica("c0", "h1", image)
    world.run(until=2.05)
    ns = image.namespace
    assert not ns.data_lost
    pending = ns.repair_pending_bytes
    assert pending > 0
    # repair accounting is monotone-decreasing: no double-counting as
    # the background re-replication drains
    last = pending
    for t in (3.0, 5.0, 8.0, 30.0):
        world.run(until=t)
        now_pending = ns.repair_pending_bytes
        assert now_pending <= last + 1e-6
        last = now_pending
    assert ns.repair_pending_bytes == pytest.approx(0.0)
    assert not rep.report.failed
    assert rep.report.done_time is not None


def test_vmd_loss_with_tracer_emits_reprotect_without_crashing():
    """Regression: ``repair_pending_bytes`` is a property — the traced
    data-loss path must not call it."""
    from repro.obs import Tracer
    schedule = FaultSchedule([FaultSpec(
        FaultKind.VMD_CRASH, "vmd0", at=2.0, lose_contents=True)])
    tracer = Tracer()
    world, mgr = build(replication=2, schedule=schedule, tracer=tracer,
                       vmd_servers=3)
    image = mgr.snapshot("parent", instant=True)
    mgr.boot_replica("c0", "h1", image)
    world.run(until=5.0)
    names = {e.name for e in tracer.events}
    assert "reprotect" in names


def test_parent_host_crash_aborts_the_streaming_snapshot():
    schedule = FaultSchedule(
        [FaultSpec(FaultKind.HOST_CRASH, "h0", at=0.15)])
    world, mgr = build(schedule=schedule)
    image = mgr.snapshot("parent")          # streaming from h0
    rep = mgr.boot_replica("c0", "h1", image)
    world.run(until=5.0)
    assert image.failed
    # the dependent replica could not finish hydrating without the
    # parent and was failed by the manager
    assert rep.report.failed
    assert rep.report.failure_reason == "snapshot-aborted"
    assert "parent" not in mgr.images
