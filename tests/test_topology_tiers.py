"""Multi-tier topology: pods, AZs, tapered uplinks, nested fault
domains, and the planner/fleet spread that uses them.

The flat rack topology is the degenerate case and must behave exactly
as before the hierarchy existed — pod-less racks share the implicit
root pod/AZ, inter-rack paths still cross only the two ToR uplinks
(plus the optional core), and the planner's spread term reduces to the
old constant bonus. The new tiers add per-boundary bandwidth tapering
(a cross-pod flow pays the pod uplinks on top of the ToRs) and two
wider correlated-failure kinds: POD_CRASH and AZ_PARTITION.
"""

import pytest

from repro.cluster.world import World
from repro.faults import FaultKind, FaultSchedule, FaultSpec
from repro.fleet import (
    DomainSpreadWeigher,
    HostState,
    HostTable,
    RackSpreadWeigher,
)
from repro.sched import HostHealth, HostHealthTracker, Topology
from repro.util import MiB
from repro.vm.vm import VmState


def tiny_tiered():
    """2 AZs x 2 pods x 2 racks, one host per rack."""
    topo = Topology.tiered(2, 2, 2, uplink_bps=8e6, oversubscription=2.0)
    for rack in topo.racks:
        topo.assign(f"{rack}h0", rack)
    return topo


# -- structure and queries ------------------------------------------------------

def test_tiered_builder_names_and_tapering():
    topo = tiny_tiered()
    assert sorted(topo.azs) == ["az0", "az1"]
    assert topo.azs["az0"].pods == ["az0p0", "az0p1"]
    assert topo.pods["az0p0"].racks == ["az0p0r0", "az0p0r1"]
    # 2:1 taper per boundary: pod uplink carries 2 ToRs at half their
    # aggregate, AZ uplink carries 2 pods at half theirs
    assert topo.racks["az0p0r0"].up.capacity_bps == 8e6
    assert topo.pods["az0p0"].up.capacity_bps == 2 * 8e6 / 2
    assert topo.azs["az0"].up.capacity_bps == 2 * 8e6 / 2
    assert topo.pod_of("az0p0r0h0") == "az0p0"
    assert topo.az_of("az0p0r0h0") == "az0"
    assert topo.hosts_in_pod("az0p0") == ["az0p0r0h0", "az0p0r1h0"]
    assert len(topo.hosts_in_az("az0")) == 4


def test_tiered_validation():
    with pytest.raises(ValueError):
        Topology.tiered(0, 2, 2, uplink_bps=1e6)
    with pytest.raises(ValueError):
        Topology.tiered(2, 2, 2, uplink_bps=1e6, oversubscription=0.5)
    topo = Topology(uplink_bps=1e6)
    with pytest.raises(KeyError):
        topo.add_pod("p0", az="nope")
    with pytest.raises(KeyError):
        topo.add_rack("r0", pod="nope")
    topo.add_az("az0")
    with pytest.raises(ValueError):
        topo.add_az("az0")


def test_crossings_is_0_or_2_with_core_modeled():
    """Regression: ``crossings`` counts ToR boundary crossings — the
    docstring's "(0 or 2)" — and must not count the core link."""
    topo = Topology(uplink_bps=1e6, core_bps=1e6)
    topo.add_rack("ra")
    topo.add_rack("rb")
    topo.assign("a0", "ra")
    topo.assign("a1", "ra")
    topo.assign("b0", "rb")
    assert topo.crossings("a0", "a1") == 0
    assert topo.crossings("a0", "b0") == 2      # was 3 with a core
    assert topo.crossings("a0", "outsider") == 0
    # the full path still includes the core: hops, not crossings
    assert topo.path_hops("a0", "b0") == 3


def test_tiered_paths_climb_to_the_lowest_common_ancestor():
    topo = tiny_tiered()

    def names(src, dst):
        return [link.name for link in topo.path_links(src, dst)]

    assert names("az0p0r0h0", "az0p0r0h0") == []
    assert names("az0p0r0h0", "az0p0r1h0") == \
        ["az0p0r0.up", "az0p0r1.down"]
    assert names("az0p0r0h0", "az0p1r0h0") == \
        ["az0p0r0.up", "az0p0.up", "az0p1.down", "az0p1r0.down"]
    assert names("az0p0r0h0", "az1p0r0h0") == \
        ["az0p0r0.up", "az0p0.up", "az0.up",
         "az1.down", "az1p0.down", "az1p0r0.down"]
    assert topo.path_hops("az0p0r0h0", "az1p0r0h0") == 6
    # crossings stays a ToR count at every depth
    assert topo.crossings("az0p0r0h0", "az1p0r0h0") == 2


def test_tiered_core_only_on_cross_az_paths():
    topo = Topology.tiered(2, 1, 1, uplink_bps=1e6, core_bps=1e6)
    for rack in topo.racks:
        topo.assign(f"{rack}h0", rack)
    cross_az = [link.name
                for link in topo.path_links("az0p0r0h0", "az1p0r0h0")]
    assert "core" in cross_az


def test_tier_distance_scale():
    topo = tiny_tiered()
    assert topo.tier_distance("az0p0r0h0", "az0p0r0h0") == 0
    assert topo.tier_distance("az0p0r0h0", "az0p0r1h0") == 1
    assert topo.tier_distance("az0p0r0h0", "az0p1r0h0") == 2
    assert topo.tier_distance("az0p0r0h0", "az1p1r1h0") == 3
    assert topo.tier_distance("az0p0r0h0", "outsider") == 0
    # flat topologies top out at 1: every rack shares the root pod
    flat = Topology(uplink_bps=1e6)
    flat.add_rack("ra")
    flat.add_rack("rb")
    flat.assign("a0", "ra")
    flat.assign("b0", "rb")
    assert flat.tier_distance("a0", "b0") == 1


# -- network integration --------------------------------------------------------

def tiered_world():
    world = World(dt=0.1, net_bandwidth_bps=10e6)
    topo = Topology.tiered(2, 2, 1, uplink_bps=8e6,
                           oversubscription=2.0)
    world.use_topology(topo)
    for rack in topo.racks:
        for h in range(2):
            world.add_host(f"{rack}h{h}", 64 * MiB,
                           host_os_bytes=1 * MiB, rack=rack)
    return world, topo


def test_cross_pod_flow_pays_the_pod_uplink():
    world, topo = tiered_world()
    flow = world.network.open_flow("az0p0r0h0", "az0p1r0h0")
    assert [link.name for link in flow.links] == \
        ["az0p0r0h0.tx", "az0p0r0.up", "az0p0.up",
         "az0p1.down", "az0p1r0.down", "az0p1r0h0.rx"]
    # 1 rack/pod at 2:1 taper: the pod uplink (4e6) is the bottleneck
    flow.demand = 10e6 * 0.1
    world.network.arbitrate(0.1)
    assert flow.granted == pytest.approx(4e6 * 0.1)


def test_latency_hops_follow_the_tier_path():
    world, _ = tiered_world()
    net = world.network
    same_pod = net.hops("az0p0r0h0", "az0p0r0h1")
    cross_pod = net.hops("az0p0r0h0", "az0p1r0h0")
    cross_az = net.hops("az0p0r0h0", "az1p0r0h0")
    assert same_pod < cross_pod < cross_az


# -- nested fault kinds ---------------------------------------------------------

def fault_world():
    """Two pods of two single-host racks each, all in az0; az1 holds a
    spare; one VM per az0 host; donors out of topology."""
    world = World(dt=0.1, net_bandwidth_bps=10e6)
    topo = Topology.tiered(2, 2, 2, uplink_bps=8e6)
    world.use_topology(topo)
    hosts = []
    for rack in topo.racks:
        h = f"{rack}h0"
        world.add_host(h, 64 * MiB, host_os_bytes=1 * MiB, rack=rack)
        hosts.append(h)
    world.add_vmd([("vmdx", 256 * MiB), ("vmdy", 256 * MiB)])
    for i, h in enumerate(hosts[:4]):  # the az0 hosts
        vm = world.add_vm(f"vm{i}", 8 * MiB, h, page_size=4096)
        ns = world.vmd.create_namespace(f"vm{i}")
        world.hosts[h].place_vm(vm, 8 * MiB, ns)
    return world, topo, hosts


def test_pod_crash_takes_down_every_rack_in_the_pod():
    world, topo, hosts = fault_world()
    world.attach_faults(FaultSchedule(
        [FaultSpec(FaultKind.POD_CRASH, "az0p0", at=1.0, duration=5.0)]))
    tracker = HostHealthTracker(world, cooldown_s=1.0)
    world.run(until=2.0)
    assert topo.pods["az0p0"].up.degraded
    assert topo.racks["az0p0r0"].up.degraded
    assert world.network.nic("az0p0r0h0").tx.degraded
    assert world.vms["vm0"].state is VmState.TERMINATED
    assert world.vms["vm1"].state is VmState.TERMINATED
    # the sibling pod and the other AZ are untouched
    assert world.vms["vm2"].state is not VmState.TERMINATED
    assert not topo.pods["az0p1"].up.degraded
    assert tracker.state("az0p0r0h0") is HostHealth.DOWN
    assert tracker.state("az0p1r0h0") is HostHealth.UP
    world.run(until=8.0)
    assert not topo.pods["az0p0"].up.degraded
    assert not world.network.nic("az0p0r0h0").tx.degraded


def test_az_partition_isolates_without_killing():
    world, topo, hosts = fault_world()
    world.attach_faults(FaultSchedule(
        [FaultSpec(FaultKind.AZ_PARTITION, "az0", at=1.0,
                   duration=3.0)]))
    tracker = HostHealthTracker(world, cooldown_s=1.0)
    world.run(until=2.0)
    assert topo.azs["az0"].up.degraded
    # nothing dies: the AZ is unreachable, not powered off
    assert world.vms["vm0"].state is not VmState.TERMINATED
    assert not world.network.nic("az0p0r0h0").tx.degraded
    assert tracker.state("az0p0r0h0") is HostHealth.DEGRADED
    # a cross-AZ flow gets nothing while the partition holds
    flow = world.network.open_flow("az0p0r0h0", "az1p0r0h0")
    flow.demand = 1e6
    world.network.arbitrate(0.1)
    assert flow.granted == 0.0
    world.run(until=5.0)
    assert not topo.azs["az0"].up.degraded
    flow.demand = 1e6
    world.network.arbitrate(0.1)
    assert flow.granted > 0.0


def test_pod_fault_validation():
    world, topo, hosts = fault_world()
    with pytest.raises(ValueError):
        world.attach_faults(FaultSchedule(
            [FaultSpec(FaultKind.POD_CRASH, "nope", at=1.0)]))
    with pytest.raises(ValueError):
        world.attach_faults(FaultSchedule(
            [FaultSpec(FaultKind.AZ_PARTITION, "nope", at=1.0)]))


# -- spread scoring -------------------------------------------------------------

def _spread_state(name, rack_load, pod=None, az=None, pod_load=0,
                  az_load=0):
    return HostState(name=name, rack="r", usable_bytes=64.0,
                     resident_bytes=0.0, reserved_bytes=0.0, health="UP",
                     inflight=0, draining=False, retired=False,
                     rack_load=rack_load, pod=pod, az=az,
                     pod_load=pod_load, az_load=az_load)


def _weights(weigher, *states):
    """``weigher``'s score per state, in argument order."""
    table = HostTable.from_states(states)
    scores = dict(zip(table, weigher.weigh(table, None).tolist()))
    return [scores[s.name] for s in states]


def test_domain_spread_prefers_the_emptiest_deep_domain():
    w = DomainSpreadWeigher()
    # same AZ load: pod load decides; same pod load: rack load decides
    crowded = _spread_state("a", rack_load=1, pod="p0", az="z0",
                            pod_load=8, az_load=10)
    empty_pod = _spread_state("b", rack_load=4, pod="p1", az="z0",
                              pod_load=2, az_load=10)
    # an emptier AZ beats any pod/rack arrangement inside a fuller one
    empty_az = _spread_state("c", rack_load=9, pod="p2", az="z1",
                             pod_load=9, az_load=9)
    s_crowded, s_empty_pod, s_empty_az = _weights(w, crowded, empty_pod,
                                                  empty_az)
    assert s_empty_pod > s_crowded
    assert s_empty_az > s_empty_pod


def test_domain_spread_degrades_to_rack_spread_on_flat():
    flat = [_spread_state(f"h{load}", rack_load=load) for load in (0, 3, 17)]
    assert _weights(DomainSpreadWeigher(), *flat) \
        == _weights(RackSpreadWeigher(), *flat)


def test_domain_spread_validation():
    with pytest.raises(ValueError):
        DomainSpreadWeigher(tier_falloff=0.0)
    with pytest.raises(ValueError):
        DomainSpreadWeigher(tier_falloff=1.5)


def test_planner_spread_scales_with_tier_distance():
    from repro.sched import MigrationPlanner
    world = World(dt=0.1, net_bandwidth_bps=10e6)
    topo = Topology.tiered(2, 2, 2, uplink_bps=80e6)
    world.use_topology(topo)
    for rack in topo.racks:
        world.add_host(f"{rack}h0", 64 * MiB, host_os_bytes=1 * MiB,
                       rack=rack)
    world.add_vmd([("vmdx", 256 * MiB)])
    vm = world.add_vm("vm0", 8 * MiB, "az0p0r0h0", page_size=4096)
    ns = world.vmd.create_namespace("vm0")
    world.hosts["az0p0r0h0"].place_vm(vm, 8 * MiB, ns)
    planner = MigrationPlanner(world, dispatch=lambda p: None,
                               exclude_hosts=("vmdx",))
    src = "az0p0r0h0"
    s1 = planner.score_destination("vm0", src, "az0p0r1h0")  # distance 1
    s2 = planner.score_destination("vm0", src, "az0p1r0h0")  # distance 2
    s3 = planner.score_destination("vm0", src, "az1p0r0h0")  # distance 3
    assert s1 < s2 < s3
    # each tier adds exactly one spread_weight step (equal headroom)
    assert s3 - s2 == pytest.approx(s2 - s1)
