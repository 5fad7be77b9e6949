"""The active-set tick engine in lockstep with the always-tick oracle.

Each scenario is built twice: once on :class:`repro.sim.TickEngine`,
whose idle memory managers, CPU arbiters, swap devices and VMD
namespaces park, and once on :class:`tests.tick_reference.AlwaysTickEngine`,
which calls every registered object every tick. Both are stepped one
tick at a time; after every tick the two worlds must agree on

* every open queue's and CPU share's demand, grant and lifetime grant;
* every binding's writeback backlog and every namespace's repair
  backlog and stored bytes;
* every host's resident counter and LRU clock;
* every open flow's demand, grant and lifetime bytes,

and no parked object may hold demand, a nonzero grant or a backlog.
The scenarios cover boots and departures under churn with a drain, a
host crash that fails a running migration, a content-losing VMD donor
crash under replication 2 (background repair), and clone boots under
a flash crowd.
"""

from dataclasses import replace

import pytest

import repro.cluster.world as world_module
from repro.cluster.scenarios import TestbedConfig, make_pressure_scenario
from repro.cluster.world import World
from repro.experiments.fleet import make_fleet
from repro.experiments.fleet import quick_config as fleet_quick_config
from repro.experiments.flashcrowd import make_flashcrowd
from repro.experiments.flashcrowd import quick_config as crowd_quick_config
from repro.faults import FaultKind, FaultSchedule, FaultSpec
from repro.mem.cpu import CpuArbiter
from repro.mem.device import SSDSwapDevice
from repro.mem.manager import HostMemoryManager
from repro.sim import Simulator, TickEngine
from repro.util import MiB
from repro.vmd.cluster import VMDCluster
from repro.vmd.namespace import VMDNamespace
from tests.test_fleet_hostview_oracle import (
    FailCounter,
    dead_vms,
    first_active_source,
)
from tests.tick_reference import AlwaysTickEngine


def _lanes(lanes):
    return [(q.name, q.demand, q.granted, q.total_granted)
            for q in lanes if q.active]


def state(world) -> dict:
    """Everything a skipped or extra tick call could change."""
    out = {"now": world.now, "ticks": world.engine.tick_index}
    for name, host in sorted(world.hosts.items()):
        mem = host.memory
        out[f"{name}.resident"] = mem.total_resident_bytes()
        out[f"{name}.clock"] = mem.tick
        out[f"{name}.backlog"] = [(b.vm_name, b.writeback_backlog)
                                  for b in mem.bindings]
        out[f"{name}.cpu"] = _lanes(host.cpu._shares)
    for name, dev in sorted(world.ssds.items()):
        out[f"ssd.{name}"] = _lanes(dev._queues)
    if world.vmd is not None:
        for name, ns in world.vmd.namespaces.items():
            out[f"ns.{name}"] = (_lanes(ns._queues), ns.repair_pending_bytes,
                                 ns.repaired_bytes, ns.used_bytes)
    out["flows"] = [(f.name, f.demand, f.granted, f.total_bytes)
                    for f in world.network.flows if f.active]
    return out


def assert_parked_idle(engine) -> None:
    """No parked object holds demand, a nonzero grant or a backlog."""
    for obj in engine._parked.values():
        if isinstance(obj, HostMemoryManager):
            for b in obj.bindings:
                assert b.writeback_backlog == 0, (obj.host, b.vm_name)
                assert b.write_queue.demand == 0, (obj.host, b.vm_name)
            continue
        if isinstance(obj, CpuArbiter):
            lanes = obj._shares
        elif isinstance(obj, SSDSwapDevice):
            lanes = obj._queues
        else:
            assert isinstance(obj, VMDNamespace), obj
            assert obj.repair_pending_bytes == 0, obj.name
            assert not obj._repair_plan, obj.name
            lanes = obj._queues
            for q in lanes:
                for flow in q.flows.values():
                    assert (flow.demand, flow.granted) == (0, 0), flow.name
        for q in lanes:
            assert (q.demand, q.granted) == (0, 0), q.name


def twin(monkeypatch, build):
    """``build()`` on the active-set engine and on the oracle."""
    live = build()
    with monkeypatch.context() as m:
        m.setattr(world_module, "TickEngine", AlwaysTickEngine)
        ref = build()
    assert isinstance(ref.world.engine, AlwaysTickEngine)
    return live, ref


def run_lockstep(live_world, ref_world, until: float) -> dict:
    """Step both worlds one tick at a time up to ``until``, comparing
    their state after every tick; returns park/wake counts."""
    for world in (live_world, ref_world):
        world.run(until=0.0)
    engine = live_world.engine
    seen = {"ticks": 0, "parked_max": 0, "wakes": 0}
    parked = set()
    while live_world.now < until:
        for world in (live_world, ref_world):
            k = world.engine.tick_index
            while world.engine.tick_index == k:
                world.sim.step()
        got, want = state(live_world), state(ref_world)
        diff = [k for k in want if got.get(k) != want[k]]
        assert not diff, (f"tick {got['ticks']} @{got['now']:g}s: "
                          + "; ".join(f"{k}: {got.get(k)} != {want[k]}"
                                      for k in diff[:3]))
        assert_parked_idle(engine)
        now_parked = set(engine._parked)
        registered = engine._participants.keys() | engine._arbiters.keys()
        seen["wakes"] += len((parked - now_parked) & registered)
        seen["parked_max"] = max(seen["parked_max"], len(now_parked))
        seen["ticks"] += 1
        parked = now_parked
    return seen


def test_churn_with_drain_in_lockstep(monkeypatch):
    live, ref = twin(monkeypatch,
                     lambda: make_fleet(fleet_quick_config(seed=1)))
    seen = run_lockstep(live.world, ref.world, live.config.until)
    c = live.scheduler.counters
    assert c["booted"] > 0 and c["departed"] > 0
    assert c["drained_hosts"] == 1
    assert seen["parked_max"] > 0
    assert c == ref.scheduler.counters


def test_host_crash_with_failed_migration_in_lockstep(monkeypatch):
    at, src = first_active_source(seed=0)
    fails = FailCounter(monkeypatch)
    schedule = FaultSchedule([FaultSpec(FaultKind.HOST_CRASH, src, at)])
    live, ref = twin(monkeypatch, lambda: make_fleet(
        fleet_quick_config(seed=0), schedule))
    seen = run_lockstep(live.world, ref.world, live.config.until)
    assert fails.n >= 2            # the crash failed a migration in each
    assert dead_vms(live.world) == dead_vms(ref.world) >= 1
    assert seen["parked_max"] > 0


def test_vmd_content_loss_with_replication_2_in_lockstep(monkeypatch):
    """Two-copy namespaces over three donors: a donor crash that
    destroys its contents leaves a repair backlog that wakes every
    affected namespace, which re-replicates onto the third donor."""
    at = 10.0
    create = VMDCluster.create_namespace
    monkeypatch.setattr(VMDCluster, "create_namespace",
                        lambda vmd, name, replication=1: create(
                            vmd, name, replication=2))
    add_vmd = World.add_vmd
    monkeypatch.setattr(World, "add_vmd", lambda world, servers, **kw: add_vmd(
        world, servers + [("vmd2", servers[0][1])], **kw))
    schedule = FaultSchedule([FaultSpec(
        FaultKind.VMD_CRASH, "vmd0", at, lose_contents=True)])

    def build():
        fleet = make_fleet(fleet_quick_config(seed=0), schedule)
        world = fleet.world

        def give_every_vm_swap_data():
            for name in sorted(world.vmd.namespaces):
                world.vmd.namespaces[name].preload(8 * MiB)

        world.sim.call_at(at - 0.05, give_every_vm_swap_data)
        return fleet

    live, ref = twin(monkeypatch, build)
    seen = run_lockstep(live.world, ref.world, live.config.until)
    namespaces = live.world.vmd.namespaces.values()
    assert all(ns.replication == 2 for ns in namespaces)
    assert not any(ns.data_lost for ns in namespaces)
    assert sum(ns.repaired_bytes for ns in namespaces) > 0
    assert seen["wakes"] > 0


def test_clone_flash_crowd_in_lockstep(monkeypatch):
    cfg = replace(crowd_quick_config(seed=0), provision="clone")
    live, ref = twin(monkeypatch, lambda: make_flashcrowd(cfg))
    seen = run_lockstep(live.world, ref.world, cfg.cluster.until)
    assert live.scheduler.counters["cloned"] > 0
    assert live.scheduler.counters == ref.scheduler.counters
    assert seen["parked_max"] > 0 and seen["wakes"] > 0


@pytest.mark.parametrize("technique,n_vms,reservation_mib", [
    ("pre-copy", 2, 12), ("pre-copy", 2, 24), ("agile", 2, 24),
    ("pre-copy", 1, 24)])
def test_pressure_run_with_migration_in_lockstep(monkeypatch, technique,
                                                 n_vms, reservation_mib):
    """OLTP VMs under memory pressure swap to the host SSD (pre-copy)
    or to their VMD namespaces (agile) while one migrates. With 12 MiB
    cgroups both VMs keep evicting, so the source manager parks
    whenever its writeback drains and eviction wakes it; with 24 MiB
    cgroups the pressure is host-wide and the migration relieves it, so
    the swap device and the namespaces go quiet and park. A lone VM's
    CPU share goes quiet while it is suspended for stop-and-copy."""
    cfg = TestbedConfig(page_size=4096, host_os_bytes=1 * MiB)

    def build():
        lab = make_pressure_scenario(
            technique, "oltp", n_vms=n_vms, vm_memory_bytes=32 * MiB,
            host_memory_bytes=40 * MiB,
            reservation_bytes=reservation_mib * MiB,
            oltp_dataset_bytes=24 * MiB, config=cfg)
        lab.start_migration_at(2.0)
        return lab

    live, ref = twin(monkeypatch, build)
    seen = run_lockstep(live.world, ref.world, 20.0)
    assert live.report.end_time is not None
    assert live.report.total_bytes == ref.report.total_bytes
    assert seen["parked_max"] > 0 and seen["wakes"] > 0


@pytest.mark.parametrize("n_lanes", [1, 2])
@pytest.mark.parametrize("kind", ["cpu", "ssd"])
def test_idle_arbiter_zeroes_its_grants_then_parks(kind, n_lanes):
    """An arbitration that sees no demand still writes every grant (to
    zero) before the arbiter parks; new demand wakes it at once."""
    sim = Simulator()
    engine = TickEngine(sim, dt=1.0)
    if kind == "cpu":
        arbiter = CpuArbiter("h", cores=4)
        lanes = [arbiter.open_share(f"s{i}") for i in range(n_lanes)]
    else:
        arbiter = SSDSwapDevice("ssd")
        lanes = [arbiter.open_queue(f"q{i}", "read") for i in range(n_lanes)]
    engine.add_arbiter(arbiter)
    engine.start()
    for lane in lanes:
        lane.demand = 0.5
    sim.run(until=1.0)
    assert all(lane.granted == 0.5 for lane in lanes)
    assert id(arbiter) not in engine._parked
    sim.run(until=2.0)                  # no demand: grants go to 0
    assert all(lane.granted == 0 for lane in lanes)
    assert id(arbiter) in engine._parked
    lanes[0].demand = 0.25
    assert id(arbiter) not in engine._parked
    sim.run(until=3.0)
    assert lanes[0].granted == 0.25


def test_oracle_never_parks(monkeypatch):
    """The oracle really is always-tick: parking requests change
    nothing, so every registered object runs every tick."""
    monkeypatch.setattr(world_module, "TickEngine", AlwaysTickEngine)
    fleet = make_fleet(fleet_quick_config(seed=0))
    calls = []
    original = HostMemoryManager.commit_tick
    monkeypatch.setattr(HostMemoryManager, "commit_tick",
                        lambda mgr, dt: (calls.append(mgr.host),
                                         original(mgr, dt)))
    fleet.run(until=1.0)
    assert len(calls) == 10 * len(fleet.world.hosts)
