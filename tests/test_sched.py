"""repro.sched: topology, correlated rack faults, host health, planner
scoring/admission, control-plane rebalancing, and determinism."""

import pytest

from repro.cluster.setup import preload_dataset
from repro.cluster.world import World
from repro.experiments.datacenter import (
    DatacenterConfig,
    churn_run,
    datacenter_run,
    honeypot_schedule,
    make_datacenter,
)
from repro.faults import FaultKind, FaultSchedule, FaultSpec
from repro.sched import (
    ClusterControlPlane,
    HostHealth,
    HostHealthTracker,
    MigrationPlan,
    MigrationPlanner,
    PlannerConfig,
    Topology,
)
from repro.util import MiB
from repro.vm.vm import VmState
from repro.vmd.placement import RoundRobinPlacement
from repro.vmd.server import VMDServer


# -- topology -------------------------------------------------------------------

def two_rack_topology():
    topo = Topology(uplink_bps=10e6)
    topo.add_rack("ra")
    topo.add_rack("rb")
    for h in ("a0", "a1"):
        topo.assign(h, "ra")
    topo.assign("b0", "rb")
    return topo


def test_topology_paths_and_fault_domains():
    topo = two_rack_topology()
    assert topo.same_rack("a0", "a1")
    assert topo.tier_distance("a0", "a1") == 0
    assert not topo.same_rack("a0", "b0")
    assert topo.path_links("a0", "a1") == ()
    names = [link.name for link in topo.path_links("a0", "b0")]
    assert names == ["ra.up", "rb.down"]
    # out-of-topology endpoints cross no rack links
    assert topo.path_links("a0", "client") == ()
    assert not topo.same_rack("a0", "client")
    assert topo.rack_of("client") is None
    assert topo.hosts_in("ra") == ["a0", "a1"]


def test_topology_core_link_and_validation():
    topo = Topology(uplink_bps=10e6, core_bps=5e6)
    topo.add_rack("ra")
    topo.add_rack("rb")
    topo.assign("a0", "ra")
    topo.assign("b0", "rb")
    names = [link.name for link in topo.path_links("a0", "b0")]
    assert names == ["ra.up", "core", "rb.down"]
    with pytest.raises(ValueError):
        topo.assign("a0", "rb")  # already placed
    with pytest.raises(KeyError):
        topo.assign("c0", "nope")
    with pytest.raises(ValueError):
        topo.add_rack("ra")
    with pytest.raises(ValueError):
        Topology(uplink_bps=0)


def test_inter_rack_flows_cross_the_uplink():
    world = World(dt=0.1, net_bandwidth_bps=10e6)
    topo = Topology(uplink_bps=4e6)
    world.use_topology(topo)
    topo.add_rack("ra")
    topo.add_rack("rb")
    world.add_host("a0", 64 * MiB, host_os_bytes=1 * MiB, rack="ra")
    world.add_host("a1", 64 * MiB, host_os_bytes=1 * MiB, rack="ra")
    world.add_host("b0", 64 * MiB, host_os_bytes=1 * MiB, rack="rb")
    intra = world.network.open_flow("a0", "a1")
    inter = world.network.open_flow("a0", "b0")
    assert [link.name for link in intra.links] == ["a0.tx", "a1.rx"]
    assert [link.name for link in inter.links] == \
        ["a0.tx", "ra.up", "rb.down", "b0.rx"]
    # the narrow uplink, not the NIC, caps the inter-rack flow
    intra.demand = 10e6 * 0.1
    inter.demand = 10e6 * 0.1
    world.network.arbitrate(0.1)
    assert inter.granted == pytest.approx(4e6 * 0.1)


def test_set_topology_after_flows_is_rejected():
    world = World(dt=0.1)
    world.add_host("a0", 64 * MiB, host_os_bytes=1 * MiB)
    world.add_host("b0", 64 * MiB, host_os_bytes=1 * MiB)
    world.network.open_flow("a0", "b0")
    with pytest.raises(RuntimeError):
        world.network.set_topology(Topology(uplink_bps=1e6))


# -- correlated rack faults -----------------------------------------------------

def rack_world(vmd_on="a1"):
    """Two racks, two hosts each, one VM per rack-a host, a donor on
    ``vmd_on``, plus an out-of-rack donor so namespaces survive."""
    world = World(dt=0.1, net_bandwidth_bps=10e6)
    topo = Topology(uplink_bps=10e6)
    world.use_topology(topo)
    topo.add_rack("ra")
    topo.add_rack("rb")
    for h in ("a0", "a1"):
        world.add_host(h, 64 * MiB, host_os_bytes=1 * MiB, rack="ra")
    for h in ("b0", "b1"):
        world.add_host(h, 64 * MiB, host_os_bytes=1 * MiB, rack="rb")
    world.add_vmd([(vmd_on, 256 * MiB), ("vmdx", 256 * MiB)])
    for i, h in enumerate(("a0", "a1")):
        vm = world.add_vm(f"vm{i}", 8 * MiB, h, page_size=4096)
        ns = world.vmd.create_namespace(f"vm{i}")
        world.hosts[h].place_vm(vm, 8 * MiB, ns)
    return world, topo


def test_rack_crash_takes_down_hosts_vms_and_donors():
    world, topo = rack_world()
    schedule = FaultSchedule(
        [FaultSpec(FaultKind.RACK_CRASH, "ra", at=1.0, duration=5.0)])
    world.attach_faults(schedule)
    world.run(until=2.0)
    assert world.network.nic("a0").tx.degraded
    assert world.network.nic("a1").rx.degraded
    assert topo.racks["ra"].up.degraded
    assert world.vms["vm0"].state is VmState.TERMINATED
    assert world.vms["vm1"].state is VmState.TERMINATED
    assert not world.vmd.server_on("a1").alive
    assert world.vmd.server_on("vmdx").alive  # out-of-rack donor spared
    world.run(until=7.0)
    # power restored: links, NICs, donors return; the VMs do not
    assert not world.network.nic("a0").tx.degraded
    assert not topo.racks["ra"].up.degraded
    assert world.vmd.server_on("a1").alive
    assert world.vms["vm0"].state is VmState.TERMINATED


def test_rack_crash_validation():
    world, _ = rack_world()
    with pytest.raises(ValueError):
        world.attach_faults(FaultSchedule(
            [FaultSpec(FaultKind.RACK_CRASH, "nope", at=1.0)]))
    bare = World(dt=0.1)
    bare.add_host("h", 64 * MiB, host_os_bytes=1 * MiB)
    with pytest.raises(ValueError):
        bare.attach_faults(FaultSchedule(
            [FaultSpec(FaultKind.RACK_CRASH, "ra", at=1.0)]))


# -- host health ----------------------------------------------------------------

def test_health_tracker_full_lifecycle():
    world, _ = rack_world()
    schedule = FaultSchedule(
        [FaultSpec(FaultKind.NIC_DOWN, "b0", at=1.0, duration=2.0),
         FaultSpec(FaultKind.NIC_DEGRADED, "b1", at=1.0, duration=2.0,
                   severity=0.5)])
    world.attach_faults(schedule)
    tracker = HostHealthTracker(world, cooldown_s=3.0)
    changes = []
    tracker.subscribe(lambda h, old, new: changes.append((h, new)))
    assert tracker.state("b0") is HostHealth.UP
    world.run(until=1.5)
    assert tracker.state("b0") is HostHealth.DOWN
    assert not tracker.placeable("b0")
    assert tracker.state("b1") is HostHealth.DEGRADED
    assert tracker.placeable("b1")  # degraded is placeable, scored down
    assert tracker.snapshot() == {"b0": "down", "b1": "degraded"}
    world.run(until=3.5)  # reverted at 3.0 → cooldown until 6.0
    assert tracker.state("b0") is HostHealth.RECENTLY_FAILED
    assert not tracker.placeable("b0")
    assert tracker.state("b1") is HostHealth.UP  # degradation has no cooldown
    world.run(until=6.5)
    assert tracker.state("b0") is HostHealth.UP
    assert (("b0", HostHealth.DOWN) in changes
            and ("b0", HostHealth.RECENTLY_FAILED) in changes
            and ("b0", HostHealth.UP) in changes)


def test_health_tracker_rack_crash_marks_every_host():
    world, _ = rack_world()
    schedule = FaultSchedule(
        [FaultSpec(FaultKind.RACK_CRASH, "ra", at=1.0, duration=2.0)])
    world.attach_faults(schedule)
    tracker = HostHealthTracker(world, cooldown_s=5.0)
    world.run(until=1.5)
    assert tracker.state("a0") is HostHealth.DOWN
    assert tracker.state("a1") is HostHealth.DOWN
    assert tracker.state("b0") is HostHealth.UP
    world.run(until=3.5)
    assert tracker.state("a0") is HostHealth.RECENTLY_FAILED


def test_health_cooldown_superseded_by_second_crash():
    world, _ = rack_world()
    schedule = FaultSchedule(
        [FaultSpec(FaultKind.NIC_DOWN, "b0", at=1.0, duration=1.0),
         FaultSpec(FaultKind.NIC_DOWN, "b0", at=3.0, duration=1.0)])
    world.attach_faults(schedule)
    tracker = HostHealthTracker(world, cooldown_s=2.5)
    world.run(until=3.5)
    # second crash landed inside the first cooldown: DOWN wins, and the
    # stale cooldown expiry (at 4.5) must not flip the host to UP early
    assert tracker.state("b0") is HostHealth.DOWN
    world.run(until=5.0)
    assert tracker.state("b0") is HostHealth.RECENTLY_FAILED
    world.run(until=7.0)  # second cooldown ends at 6.5
    assert tracker.state("b0") is HostHealth.UP


def test_health_tracker_requires_faults():
    world, _ = rack_world()
    with pytest.raises(RuntimeError):
        HostHealthTracker(world)


# -- planner --------------------------------------------------------------------

def planner_world():
    """Three destination hosts with distinct free memory, one source."""
    world = World(dt=0.1, net_bandwidth_bps=10e6)
    topo = Topology(uplink_bps=10e6)
    world.use_topology(topo)
    topo.add_rack("ra")
    topo.add_rack("rb")
    world.add_host("src", 64 * MiB, host_os_bytes=1 * MiB, rack="ra")
    world.add_host("peer", 64 * MiB, host_os_bytes=1 * MiB, rack="ra")
    world.add_host("b0", 64 * MiB, host_os_bytes=1 * MiB, rack="rb")
    world.add_host("b1", 128 * MiB, host_os_bytes=1 * MiB, rack="rb")
    world.add_vmd([("vmdx", 256 * MiB)])
    vm = world.add_vm("vm0", 8 * MiB, "src", page_size=4096)
    ns = world.vmd.create_namespace("vm0")
    world.hosts["src"].place_vm(vm, 8 * MiB, ns)
    # a filler VM keeps b0's free *fraction* below the empty b1's, so
    # headroom scoring has a strict order to witness
    vmf = world.add_vm("vmf", 16 * MiB, "b0", page_size=4096)
    nsf = world.vmd.create_namespace("vmf")
    world.hosts["b0"].place_vm(vmf, 16 * MiB, nsf)
    preload_dataset(vmf, world.manager_of("b0"), 16 * MiB)
    return world


def test_planner_prefers_headroom_and_spread():
    world = planner_world()
    dispatched = []
    planner = MigrationPlanner(world, dispatch=dispatched.append)
    planner.request("vm0", "src")
    assert len(dispatched) == 1
    plan = dispatched[0]
    # b1 has double the memory (best headroom) and sits in another rack
    # (spread bonus beats same-rack locality with default weights)
    assert plan.dst == "b1"
    assert plan.src == "src"
    assert plan.demand_bytes == 8 * MiB
    assert "plan#1" in planner.log[-1]


def test_planner_skips_down_hosts_and_repumps_on_health():
    world = planner_world()
    schedule = FaultSchedule(
        [FaultSpec(FaultKind.NIC_DOWN, "b1", at=1.0, duration=2.0)])
    world.attach_faults(schedule)
    tracker = HostHealthTracker(world, cooldown_s=1.0)
    dispatched = []
    planner = MigrationPlanner(world, health=tracker,
                               dispatch=dispatched.append)
    world.run(until=1.5)
    planner.request("vm0", "src")
    assert dispatched[0].dst == "b0"  # the honeypot b1 is DOWN


def test_planner_admission_caps_and_fifo_queue():
    world = planner_world()
    for i, host in ((1, "src"), (2, "peer")):
        vm = world.add_vm(f"vm{i}", 8 * MiB, host, page_size=4096)
        ns = world.vmd.create_namespace(f"vm{i}")
        world.hosts[host].place_vm(vm, 8 * MiB, ns)
    dispatched = []
    planner = MigrationPlanner(
        world, config=PlannerConfig(max_per_host=1, max_per_uplink=2),
        dispatch=dispatched.append)
    planner.request("vm0", "src")
    planner.request("vm1", "src")   # src already migrating → queued
    planner.request("vm2", "peer")  # b1 slot taken → next-best b0
    assert [p.vm for p in dispatched] == ["vm0", "vm2"]
    assert planner.queue[0].vm == "vm1"
    # duplicates are absorbed
    planner.request("vm1", "src")
    assert len(planner.queue) == 1
    # releasing vm0's slots admits the queued request (FIFO)
    planner.on_plan_done(dispatched[0], "completed")
    assert [p.vm for p in dispatched] == ["vm0", "vm2", "vm1"]


def test_planner_replan_excludes_failed_destination():
    world = planner_world()
    dispatched = []
    planner = MigrationPlanner(world, dispatch=dispatched.append)
    planner.request("vm0", "src")
    plan = dispatched[0]
    assert plan.dst == "b1"
    new = planner.replan(plan, exclude=frozenset({"b1"}))
    assert new is not None and new.dst == "b0" and new.replans == 1
    assert planner.active["vm0"] is new


# -- VMD donor health filter ----------------------------------------------------

def test_round_robin_skips_unplaceable_donors():
    s0, s1 = VMDServer("h0", 64 * MiB), VMDServer("h1", 64 * MiB)
    placement = RoundRobinPlacement([s0, s1], chunk_bytes=1 * MiB,
                                    placeable=lambda s: s.host != "h0")
    plan = placement.split_write(4 * MiB)
    assert s0 not in plan
    assert plan[s1] == 4 * MiB


def test_vmd_cluster_attach_health_filters_new_placements():
    world, _ = rack_world()
    schedule = FaultSchedule(
        [FaultSpec(FaultKind.NIC_DOWN, "a1", at=1.0, duration=100.0)])
    world.attach_faults(schedule)
    tracker = HostHealthTracker(world)
    world.vmd.attach_health(tracker)
    world.run(until=1.5)
    ns = world.vmd.namespaces["vm0"]
    plan = ns.placement.split_write(4 * MiB)
    downed = world.vmd.server_on("a1")
    assert downed not in plan  # its host is DOWN, alive flag or not
    assert sum(plan.values()) == 4 * MiB


# -- trigger / planner handshake ------------------------------------------------

def test_trigger_stays_armed_when_migrate_returns_false():
    from repro.core.trigger import WatermarkConfig, WatermarkTrigger
    from repro.sim.kernel import Simulator
    sim = Simulator()
    calls = []

    def migrate(names):
        calls.append(list(names))
        return False  # planner had no destination

    trigger = WatermarkTrigger(
        sim, usable_bytes=100.0,
        wss_of=lambda: {"vm0": 90.0, "vm1": 8.0},
        migrate=migrate,
        config=WatermarkConfig(high_watermark=0.9, low_watermark=0.5,
                               check_interval_s=1.0))
    sim.run(until=3.5)
    # un-handled alerts don't disarm (or count): the crossing re-fires
    assert len(calls) == 3
    assert trigger.trigger_count == 0
    trigger.stop()


# -- the control plane end-to-end ----------------------------------------------

def test_datacenter_rebalance_without_faults_completes():
    res = datacenter_run(until=40.0)
    assert res["failed_or_aborted"] == 0
    assert res["dead_vms"] == []
    assert res["outcomes"].get("completed", 0) >= 4
    # every overloaded host shed exactly what the low watermark asked,
    # and no destination was pushed over its own watermark (triggers are
    # now installed everywhere, so a churned destination *would* fire)
    dc = res["dc"]
    for name, t in sorted(dc.control.triggers.items()):
        if name.startswith("r0"):
            assert t.trigger_count >= 1, name
        else:
            assert t.trigger_count == 0, name


def test_fault_aware_control_plane_avoids_the_honeypot_rack():
    aware = datacenter_run(honeypot_schedule(), DatacenterConfig(
        health_aware=True), until=60.0)
    blind = datacenter_run(honeypot_schedule(), DatacenterConfig(
        health_aware=False), until=60.0)
    # the ISSUE acceptance criterion, at test scale
    assert aware["failed_or_aborted"] < blind["failed_or_aborted"]
    assert aware["unavailable_s"] < blind["unavailable_s"]
    assert aware["dead_vms"] == []
    assert blind["dead_vms"] != []
    # the aware planner routed every migration away from the honeypot
    assert not any("->r2" in line for line in aware["plan_log"]
                   if line.startswith("plan#"))


def test_scheduler_determinism_same_seed_same_plan_log():
    runs = [datacenter_run(honeypot_schedule(),
                           DatacenterConfig(health_aware=True), until=60.0)
            for _ in range(2)]
    assert runs[0]["plan_log"] == runs[1]["plan_log"]
    assert runs[0]["fault_log"] == runs[1]["fault_log"]
    assert runs[0]["outcomes"] == runs[1]["outcomes"]
    assert runs[0]["unavailable_s"] == runs[1]["unavailable_s"]


def test_control_plane_replans_after_destination_dies():
    # no early-warning crash: migrations head to the big rack, die there
    # once, and the supervisor's replan finds a surviving rack
    schedule = FaultSchedule(
        [FaultSpec(FaultKind.RACK_CRASH, "r2", at=3.0, duration=60.0)])
    dc = make_datacenter(schedule, DatacenterConfig(health_aware=True))
    dc.run(until=60.0)
    log = dc.control.planner.log
    assert any(line.startswith("replan#") for line in log)
    # re-planned migrations completed somewhere that is not r2
    done = [line for line in log if line.startswith("done#")]
    assert done and all("-> r2" not in line for line in done)
    assert dc.dead_vms() == []


# -- satellite regressions: planner lifecycle bugs ------------------------------

def test_pump_survives_synchronously_completing_dispatch():
    """A dispatch that completes inline re-enters pump() via
    on_plan_done; the outer pump's queue snapshot must not dispatch a
    request the nested pump already handled (double dispatch, then
    ``queue.remove`` ValueError)."""
    world = planner_world()
    for i, host in ((1, "src"), (2, "src")):
        vm = world.add_vm(f"vm{i}", 8 * MiB, host, page_size=4096)
        ns = world.vmd.create_namespace(f"vm{i}")
        world.hosts[host].place_vm(vm, 8 * MiB, ns)
    dispatched = []
    planner = MigrationPlanner(
        world, config=PlannerConfig(max_per_host=1),
        dispatch=dispatched.append)
    planner.request("vm0", "src")
    planner.request("vm1", "src")  # src at capacity → queued
    planner.request("vm2", "src")  # queued behind vm1
    assert [p.vm for p in dispatched] == ["vm0"]
    assert [r.vm for r in planner.queue] == ["vm1", "vm2"]
    # from here on every dispatch completes synchronously, so admitting
    # vm1 frees src's slot and the *nested* pump admits vm2 while the
    # outer pump is still iterating its two-element snapshot
    planner.dispatch = \
        lambda plan: planner.on_plan_done(plan, "completed")
    planner.on_plan_done(dispatched[0], "completed")
    assert planner.queue == []
    assert planner.active == {}
    vms_done = [p.vm for p, outcome in planner.completed]
    assert vms_done == ["vm0", "vm1", "vm2"]  # each exactly once


def test_duplicate_request_returns_false_so_triggers_stay_armed():
    """A duplicate alert (often from a *different* host's trigger) must
    not report success: the in-flight plan's completion re-arms only its
    own source, so swallowing the duplicate as handled would strand the
    other host's trigger forever."""
    world = planner_world()
    world.attach_faults(FaultSchedule())
    control = ClusterControlPlane(world, health_aware=False)
    assert control._on_alert("src", ["vm0"]) is True
    assert control.planner.request("vm0", "src") is False   # same host
    assert control._on_alert("peer", ["vm0"]) is False      # other host
    # the planner holds exactly one plan/queue entry for vm0
    assert len(control.planner.active) + len(control.planner.queue) == 1


def test_trigger_rearms_only_after_every_shed_migration_lands():
    world = planner_world()
    world.attach_faults(FaultSchedule())
    for i in (1,):
        vm = world.add_vm(f"vm{i}", 8 * MiB, "src", page_size=4096)
        ns = world.vmd.create_namespace(f"vm{i}")
        world.hosts["src"].place_vm(vm, 8 * MiB, ns)
    control = ClusterControlPlane(
        world, health_aware=False,
        planner_config=PlannerConfig(max_per_host=2))
    rearms = []

    class _FakeTrigger:
        def rearm(self):
            rearms.append(1)

    control.triggers["src"] = _FakeTrigger()
    assert control._on_alert("src", ["vm0", "vm1"]) is True
    assert control._outstanding["src"] == 2

    class _Report:
        outcome = None

    control._on_final("vm0", _Report())
    assert rearms == []  # vm1 still in flight from the same alert
    control._on_final("vm1", _Report())
    assert rearms == [1]
    assert "src" not in control._outstanding


def test_trigger_wss_is_the_reservation_of_live_non_migrating_vms():
    """The control plane's trigger sums the cgroup reservation of
    exactly the live VMs on the host that are not migrating: a VM in
    flight is already being shed, a dead one holds nothing."""
    world = planner_world()
    world.attach_faults(FaultSchedule())
    for name, nbytes in (("moving", 4 * MiB), ("dead", 2 * MiB)):
        world.boot_vm(name, nbytes, "src")
    host = world.hosts["src"]
    host.memory.binding("vm0").cgroup.set_reservation(6 * MiB)
    control = ClusterControlPlane(world, health_aware=False)
    trigger = control.add_trigger("src")
    assert trigger.wss_of() == {"dead": 2 * MiB, "moving": 4 * MiB,
                                "vm0": 6 * MiB}
    world.vms["moving"].migrating = True
    world.terminate_vm("dead")
    assert trigger.wss_of() == {"vm0": 6 * MiB}
    # the other hosts' triggers see only their own VMs
    assert control.add_trigger("b0").wss_of() == {"vmf": 16 * MiB}
    assert control.add_trigger("b1").wss_of() == {}


def test_replan_exclusion_is_cumulative_across_failures():
    """After two failed destinations the planner must not bounce the VM
    back to the first dead end (the old exclude carried only the latest
    failure)."""
    world = planner_world()
    dispatched = []
    planner = MigrationPlanner(world, dispatch=dispatched.append)
    planner.request("vm0", "src")
    plan = dispatched[0]
    assert plan.dst == "b1"
    first = planner.replan(plan, exclude=frozenset({"b1"}))
    assert first is not None and first.dst == "b0"
    assert first.tried == ("b1",)
    # second failure: only {b0} passed in, but b1 must stay excluded
    second = planner.replan(first, exclude=frozenset({"b0"}))
    assert second is not None and second.dst == "peer"
    assert second.tried == ("b1", "b0")


def test_candidate_cache_invalidates_on_equal_size_host_set_change():
    world = planner_world()
    dispatched = []
    planner = MigrationPlanner(world, dispatch=dispatched.append)
    planner.request("vm0", "src")
    assert dispatched[0].dst == "b1"  # cache populated
    planner.on_plan_done(dispatched[0], "failed")
    # equal-size change: one host leaves, another arrives
    del world.hosts["b1"]
    world.add_host("c0", 64 * MiB, host_os_bytes=1 * MiB, rack="rb")
    # a stale candidate list would KeyError on the departed b1
    planner.request("vm0", "src")
    assert dispatched[1].dst == "c0"


# -- churn control: reservation, projection, hysteresis, forecast ---------------

def test_reservation_charges_inflight_demand_against_destination():
    world = planner_world()
    aware = MigrationPlanner(world, config=PlannerConfig())
    naive = MigrationPlanner(
        world, config=PlannerConfig(reserve_in_flight=False))
    claim = MigrationPlan(seq=1, vm="vmz", src="src", dst="b1",
                          score=1.0, demand_bytes=120 * MiB, at=0.0)
    for planner in (aware, naive):
        planner._add_active(claim)
        assert planner.reserved_on("b1") == 120 * MiB
    # b1 has 127 MiB usable; the 120 MiB claim leaves no room for 8 more
    assert aware.score_destination("vm0", "src", "b1") is None
    assert naive.score_destination("vm0", "src", "b1") is not None
    aware._remove_active("vmz")
    assert aware.reserved_on("b1") == 0.0
    assert aware.score_destination("vm0", "src", "b1") is not None


def test_projection_rejects_destination_that_would_cross_watermark():
    world = planner_world()
    planner = MigrationPlanner(
        world, config=PlannerConfig(project_watermark=0.5))
    # b0: 16 MiB used of 63 usable; +16 MiB would hit 32 > 0.5 * 63
    assert planner.score_destination("vm0", "src", "b0",
                                     demand=16 * MiB) is None
    assert planner.score_destination("vm0", "src", "b1",
                                     demand=16 * MiB) is not None


def test_move_cooldown_defers_resheds_of_a_just_landed_vm():
    world = planner_world()
    dispatched = []
    planner = MigrationPlanner(
        world, config=PlannerConfig(move_cooldown_s=5.0),
        dispatch=dispatched.append)
    assert planner.request("vm0", "src") is True
    planner.on_plan_done(dispatched[0], "completed")  # lands at t=0
    # re-shedding the just-landed VM is refused (and counted), so the
    # alerting trigger stays armed instead of losing the crossing
    assert planner.request("vm0", "b1") is False
    assert planner.deferrals == {"move-cooldown": 1}
    assert any(line.startswith("defer vm0: move-cooldown")
               for line in planner.log)
    world.sim.run(until=6.0)
    assert planner.request("vm0", "b1") is True  # cooldown expired


def test_min_gain_keeps_vm_when_no_destination_is_decisively_better():
    world = planner_world()
    dispatched = []
    planner = MigrationPlanner(
        world, config=PlannerConfig(min_gain=10.0),  # nothing clears it
        dispatch=dispatched.append)
    assert planner.request("vm0", "src") is True  # accepted: stays queued
    assert dispatched == []
    assert [r.vm for r in planner.queue] == ["vm0"]
    assert planner.deferrals == {"insufficient-gain": 1}
    # replanning a failing destination ignores min_gain: any eligible
    # escape beats staying on a destination that is aborting the VM
    planner.config = PlannerConfig()  # admit it first
    planner.pump()
    plan = dispatched[0]
    planner.config = PlannerConfig(min_gain=10.0)
    assert planner.replan(plan, exclude=frozenset()) is not None


def test_usage_feed_drives_the_pressure_forecast():
    world = planner_world()
    planner = MigrationPlanner(
        world, config=PlannerConfig(forecast_alpha=1.0))
    world.subscribe_usage(planner.observe_usage)
    samples = []
    world.subscribe_usage(lambda host, t, used: samples.append((host, t)))
    world.start_usage_feed(interval_s=1.0)
    world.start_usage_feed(interval_s=0.5)  # idempotent: keeps 1.0 Hz
    world.run(until=2.5)  # samples at t=1, t=2
    # subscribers see the per-host samples the forecast feeds from
    assert [t for host, t in samples if host == "b0"] == [1.0, 2.0]
    mem = world.hosts["b0"].memory
    # flat usage: the forecast never dips below the instantaneous sample
    assert planner._usage_estimate("b0", mem) == \
        mem.total_resident_bytes()
    # a rising trend projects above the instantaneous sample
    planner.observe_usage("b0", 3.0, mem.total_resident_bytes() + 8 * MiB)
    assert planner._usage_estimate("b0", mem) > \
        mem.total_resident_bytes() + 8 * MiB


def test_trigger_rearm_delay_quiets_the_post_landing_transient():
    from repro.core.trigger import WatermarkConfig, WatermarkTrigger
    from repro.sim.kernel import Simulator
    sim = Simulator()
    fired = []
    trigger = WatermarkTrigger(
        sim, usable_bytes=100.0,
        wss_of=lambda: {"vm0": 95.0},
        migrate=lambda names: fired.append(sim.now) or True,
        config=WatermarkConfig(high_watermark=0.9, low_watermark=0.5,
                               check_interval_s=1.0, rearm_delay_s=2.5))
    sim.run(until=1.5)
    assert fired == [1.0]
    trigger.rearm()  # at t=1.5 → quiet until 4.0
    sim.run(until=3.5)
    assert fired == [1.0]  # checks at 2.0 and 3.0 stayed quiet
    sim.run(until=4.5)
    assert fired == [1.0, 4.0]
    trigger.stop()


def test_churn_scenario_aware_beats_naive_and_stays_deterministic(
        tmp_path):
    from repro.obs.export import trace_to_jsonl
    from repro.obs.tracer import Tracer
    naive = churn_run(churn_aware=False, until=20.0)
    aware, traces = [], []
    for i in range(2):
        tracer = Tracer()
        aware.append(churn_run(churn_aware=True, until=20.0,
                               tracer=tracer))
        tracer.finish()
        path = tmp_path / f"churn{i}.jsonl"
        trace_to_jsonl(tracer, str(path))
        traces.append(path.read_bytes())
    assert aware[0]["migrations"] < naive["migrations"]
    assert aware[0]["resheds"] == []
    assert naive["resheds"] != []
    # same seed → byte-identical decision log AND trace, with the
    # reservation / projection / cooldown / forecast paths all enabled
    assert aware[0]["plan_log"] == aware[1]["plan_log"]
    assert traces[0] == traces[1]


# -- boot-reservation ledger (boots and migrations share one headroom) ----------

def test_boot_reservation_blocks_migration_overcommit():
    """A boot admitted during its boot delay must be visible to
    migration admission: without the ledger, a migration planned in
    that window lands on memory the boot is about to claim."""
    world = planner_world()
    dispatched = []
    planner = MigrationPlanner(world, dispatch=dispatched.append)
    # normally the empty big host b1 wins on headroom
    planner.request("vm0", "src")
    assert dispatched[0].dst == "b1"
    planner.on_plan_done(dispatched[0], "failed")
    # a boot claims almost all of b1 (placed, not yet resident)
    planner.reserve_boot("b1", 124 * MiB)
    assert planner.reserved_on("b1") == 124 * MiB
    # migration admission now routes around the pending boot
    planner.request("vm0", "src")
    assert len(dispatched) == 2
    assert dispatched[1].dst != "b1"
    planner.on_plan_done(dispatched[1], "failed")
    # the boot completing (pages resident) releases the claim exactly
    planner.release_boot("b1", 124 * MiB)
    assert planner.reserved_on("b1") == 0.0
    planner.request("vm0", "src")
    assert dispatched[2].dst == "b1"


def test_planner_direct_respects_ledger_caps_and_credit():
    world = planner_world()
    dispatched = []
    planner = MigrationPlanner(world, dispatch=dispatched.append,
                               config=PlannerConfig(max_per_host=2))
    # basic admission: caller-chosen destination dispatches immediately
    plan = planner.direct("vm0", "src", "b0")
    assert plan is not None and plan.dst == "b0"
    assert [p.vm for p in dispatched] == ["vm0"]
    # duplicates are refused while the plan is active
    assert planner.direct("vm0", "src", "b1") is None
    # a boot reservation can make a destination inadmissible...
    planner.reserve_boot("b1", 124 * MiB)
    assert planner.direct("vmf", "b0", "b1") is None
    # ...unless the caller credits bytes about to leave (swap half)
    plan2 = planner.direct("vmf", "b0", "b1", credit_bytes=64 * MiB)
    assert plan2 is not None and plan2.dst == "b1"
    # nonsense destinations are refused outright
    assert planner.direct("vm0", "src", "src") is None
    assert planner.direct("vm0", "src", "nope") is None


def test_planner_cancel_drops_queued_requests_only():
    world = planner_world()
    dispatched = []
    planner = MigrationPlanner(world, dispatch=dispatched.append)
    planner.request("vm0", "src")   # dispatches immediately (active)
    assert "vm0" in planner.active
    # the source is now at max_per_host=1, so a second request from it
    # stays queued — the departed-VM case cancel() exists for
    planner.request("vmf", "src")
    assert [r.vm for r in planner.queue] == ["vmf"]
    assert planner.cancel("vmf") is True
    assert planner.queue == []
    # cancel never touches active plans or unknown VMs
    assert planner.cancel("vm0") is False
    assert "vm0" in planner.active
    assert planner.cancel("no-such-vm") is False
