"""VMDCluster namespace refcounting: shared images are freed exactly
once, after the last reader releases, in any release order."""

import pytest

from repro.cluster.world import World
from repro.faults import FaultKind, FaultSchedule, FaultSpec
from repro.util import MiB


def build(n_servers=2, schedule=None, tracer=None):
    world = World(dt=0.1, net_bandwidth_bps=40e6, tracer=tracer)
    world.add_host("h0", 64 * MiB, host_os_bytes=1 * MiB)
    world.add_vmd([(f"vmd{k}", 256 * MiB) for k in range(n_servers)],
                  placement_chunk_bytes=1 * MiB)
    if schedule is not None:
        world.attach_faults(schedule)
    return world


def test_retain_release_frees_bytes_only_after_last_reader():
    world = build()
    vmd = world.vmd
    ns = vmd.create_namespace("img")
    ns.preload(8 * MiB)
    assert ns.used_bytes == pytest.approx(8 * MiB)
    # three extra readers on top of the creation reference
    for _ in range(3):
        assert vmd.retain_namespace("img") is ns
    # arbitrary release order: bytes survive every non-final release
    for remaining in (3, 2, 1):
        assert vmd.release_namespace("img") == remaining
        assert "img" in vmd.namespaces
        assert ns.used_bytes == pytest.approx(8 * MiB)
    assert vmd.release_namespace("img") == 0
    assert "img" not in vmd.namespaces
    assert ns.used_bytes == pytest.approx(0.0)


def test_release_removes_tick_registration_only_at_zero():
    world = build()
    vmd = world.vmd
    engine = world.engine
    base = (len(engine._participants), len(engine._arbiters))
    ns = vmd.create_namespace("img")
    assert (len(engine._participants), len(engine._arbiters)) \
        == (base[0] + 1, base[1] + 1)
    vmd.retain_namespace("img")
    vmd.release_namespace("img")
    # still referenced: the namespace stays in the tick loop
    assert (len(engine._participants), len(engine._arbiters)) \
        == (base[0] + 1, base[1] + 1)
    vmd.release_namespace("img")
    assert (len(engine._participants), len(engine._arbiters)) == base
    # gone from the active set and the parked objects alike
    assert id(ns) not in engine._parked
    assert all(obj is not ns for _, _, obj in
               engine._active_participants + engine._active_arbiters)


def test_retain_and_release_of_unknown_namespace_raise():
    world = build()
    with pytest.raises(KeyError):
        world.vmd.retain_namespace("ghost")
    with pytest.raises(KeyError):
        world.vmd.release_namespace("ghost")


def test_server_loss_mid_clone_repairs_without_double_counting():
    """A donor crash while a replicated namespace is shared: repair
    bytes are accounted once and drain monotonically to zero."""
    schedule = FaultSchedule([FaultSpec(
        FaultKind.VMD_CRASH, "vmd0", at=1.0, lose_contents=True)])
    world = build(n_servers=3, schedule=schedule)
    vmd = world.vmd
    ns = vmd.create_namespace("img", replication=2)
    ns.preload(6 * MiB)
    vmd.retain_namespace("img")     # a second reader, as during a clone
    world.run(until=1.05)
    assert not ns.data_lost
    pending = ns.repair_pending_bytes
    assert pending > 0
    # lost copies of 6 MiB logical: never more than the logical bytes
    assert pending <= 6 * MiB + 1e-6
    last = pending
    while world.now < 30.0 and ns.repair_pending_bytes > 0:
        world.run(until=world.now + 1.0)
        assert ns.repair_pending_bytes <= last + 1e-6
        last = ns.repair_pending_bytes
    assert ns.repair_pending_bytes == pytest.approx(0.0)
    # both readers release cleanly after the repair
    assert vmd.release_namespace("img") == 1
    assert vmd.release_namespace("img") == 0
    assert "img" not in vmd.namespaces


def test_traced_data_loss_reconcile_does_not_crash():
    """Regression for the ``repair_pending_bytes`` property being
    called in the cluster's traced reconcile path (was a TypeError)."""
    from repro.obs import Tracer
    schedule = FaultSchedule([FaultSpec(
        FaultKind.VMD_CRASH, "vmd0", at=1.0, lose_contents=True)])
    tracer = Tracer()
    world = build(n_servers=3, schedule=schedule, tracer=tracer)
    ns = world.vmd.create_namespace("img", replication=2)
    ns.preload(4 * MiB)
    world.run(until=2.0)            # crashes inside run without the fix
    assert not ns.data_lost
    assert any(e.name == "server-lost" or "repair" in e.name
               for e in tracer.events)
