"""Differential tests: the network arbiter vs the reference oracle.

The contract is the max-min bottleneck certificate
(:func:`repro.net.maxmin_violations`): after every tick, every grant is
at most its demand and every under-served flow crosses a link saturated
by its own and higher classes on which no same-class flow gets more.
The arbiter solves each class by level events, the oracle
(``tests/net_reference.py``) by iterated progressive filling, so their
floats differ in the last bits; they must agree to rel 1e-9 (abs 1e-6 B)
on every grant. These tests drive one network through randomized churn
— multi-priority demand, flow open/close, link degradation, fabric
partitions, rack and three-tier topologies, many parallel lanes sharing
one path — and check it after every tick, along with byte conservation
on every flow and link.
"""

import math
import random

import pytest

from repro.net import Network, maxmin_violations
from repro.net.certificate import ABS_TOL, REL_TOL
from repro.sched.topology import Topology
from tests.net_reference import reference_grants

SEEDS = [0, 1, 7, 42, 1234]


def agree(a, b):
    """The oracle-agreement tolerance: rel 1e-9, abs 1e-6 bytes."""
    return math.isclose(a, b, rel_tol=REL_TOL, abs_tol=ABS_TOL)


def assert_certified(net, demands, dt):
    """Fail with the first violations if ``net``'s grants for this tick
    break the max-min certificate."""
    problems = maxmin_violations(net, demands, dt)
    assert not problems, problems[:5]


class TwinFabric:
    """One network and its oracle twin: every ``tick`` arbitrates the
    network, then checks the certificate, agreement with
    :func:`reference_grants` on the same demand snapshot, and
    conservation — each flow's ``total_bytes`` and each link's
    ``bytes_carried`` equal the sums of the grants they carried."""

    def __init__(self, hosts, bw=1e6, latency_s=0.0,
                 topology=None):
        self.net = Network(default_bandwidth_bps=bw, latency_s=latency_s)
        if topology is not None:
            self.net.set_topology(topology)
        for h in hosts:
            self.net.add_host(h)
        self.flows = []  # open flows
        #: flow -> lifetime grants; link -> grants of the flows crossing it
        self.flow_bytes = {}
        self.link_bytes = {}

    def open_flow(self, src, dst, priority=1):
        flow = self.net.open_flow(src, dst, priority=priority)
        self.flows.append(flow)
        self.flow_bytes[flow] = 0.0
        return flow

    def close_flow(self, flow):
        flow.close()
        self.flows.remove(flow)

    def degrade_nic(self, host, factor):
        self.net.nic(host).tx.degrade(factor)
        self.net.nic(host).rx.degrade(factor)

    def restore_nic(self, host):
        self.net.nic(host).tx.restore()
        self.net.nic(host).rx.restore()

    def tick(self, dt):
        demands = [(f, f.demand) for f in self.flows]
        self.net.arbitrate(dt)
        assert_certified(self.net, demands, dt)
        oracle = reference_grants(self.net, demands, dt)
        for f in self.flows:
            want = oracle.get(f, 0.0)
            assert agree(f.granted, want), (
                f"grant divergence on {f.name}: "
                f"net={f.granted!r} oracle={want!r}")
            self.flow_bytes[f] += f.granted
            assert agree(f.total_bytes, self.flow_bytes[f])
            for link in f.links:
                self.link_bytes[link] = (self.link_bytes.get(link, 0.0)
                                         + f.granted)
        for link, carried in self.link_bytes.items():
            assert agree(link.bytes_carried, carried), (
                f"{link.name}: carried={link.bytes_carried!r} "
                f"sum of grants={carried!r}")


@pytest.mark.parametrize("seed", SEEDS)
def test_differential_random_churn(seed):
    """Random multi-priority demand with flow open/close churn."""
    rng = random.Random(seed)
    hosts = [f"h{i}" for i in range(8)]
    twin = TwinFabric(hosts, bw=1e6)
    for _ in range(15):
        src, dst = rng.sample(hosts, 2)
        twin.open_flow(src, dst, priority=rng.randint(0, 2))
    for _ in range(200):
        for f in twin.flows:
            if rng.random() < 0.8:
                f.demand = rng.uniform(0.0, 3e6)
        if twin.flows and rng.random() < 0.05:
            twin.close_flow(rng.choice(twin.flows))
        if rng.random() < 0.1:
            src, dst = rng.sample(hosts, 2)
            twin.open_flow(src, dst, priority=rng.randint(0, 2))
        twin.tick(dt=rng.choice([0.05, 0.1, 0.25]))


@pytest.mark.parametrize("seed", SEEDS)
def test_differential_topology_uplinks(seed):
    """Oversubscribed rack uplinks + core: shared-bottleneck grants."""
    rng = random.Random(seed)
    racks = {"r0": [f"a{i}" for i in range(4)],
             "r1": [f"b{i}" for i in range(4)],
             "r2": [f"c{i}" for i in range(4)]}
    hosts = [h for hs in racks.values() for h in hs]

    def topo():
        t = Topology(uplink_bps=2e6, core_bps=5e6)
        for rack, members in racks.items():
            t.add_rack(rack)
            for h in members:
                t.assign(h, rack)
        return t

    twin = TwinFabric(hosts, bw=1e6, topology=topo())
    for _ in range(20):
        src, dst = rng.sample(hosts, 2)
        twin.open_flow(src, dst, priority=rng.randint(0, 1))
    for _ in range(150):
        for f in twin.flows:
            f.demand = rng.uniform(0.0, 4e6)
        twin.tick(dt=0.1)


@pytest.mark.parametrize("seed", SEEDS[:3])
def test_differential_partitions_and_degradation(seed):
    """Fault injection: degraded NICs and fabric partitions mid-run."""
    rng = random.Random(seed)
    hosts = [f"h{i}" for i in range(6)]
    twin = TwinFabric(hosts, bw=1e6)
    for _ in range(12):
        src, dst = rng.sample(hosts, 2)
        twin.open_flow(src, dst, priority=rng.randint(0, 2))
    degraded = set()
    partitioned = False
    for step in range(200):
        for f in twin.flows:
            f.demand = rng.uniform(0.0, 2e6)
        roll = rng.random()
        if roll < 0.05:
            h = rng.choice(hosts)
            twin.degrade_nic(h, rng.choice([0.0, 0.25, 0.5]))
            degraded.add(h)
        elif roll < 0.10 and degraded:
            h = degraded.pop()
            twin.restore_nic(h)
        elif roll < 0.14 and not partitioned:
            k = rng.randint(1, len(hosts) - 1)
            twin.net.set_partition([set(rng.sample(hosts, k))])
            partitioned = True
        elif roll < 0.18 and partitioned:
            twin.net.clear_partition()
            partitioned = False
        twin.tick(dt=0.1)


def test_differential_intra_host_and_idle_flows():
    """Intra-host flows (no links) and long-idle flows are granted
    alike — the arbiter's idle-skip must not change results."""
    hosts = ["a", "b", "c"]
    twin = TwinFabric(hosts, bw=100.0)
    local = twin.open_flow("a", "a")
    busy = twin.open_flow("a", "b")
    idle = twin.open_flow("b", "c")
    local.demand = 500.0
    busy.demand = 500.0
    twin.tick(dt=1.0)
    assert local.granted == 500.0
    assert busy.granted == 100.0
    assert idle.granted == 0.0
    # idle stays quiet for many ticks, then wakes
    for _ in range(50):
        busy.demand = 500.0
        twin.tick(dt=1.0)
    idle.demand = 40.0
    busy.demand = 500.0
    twin.tick(dt=1.0)
    assert idle.granted == 40.0


def test_differential_priority_preemption_exact():
    """Strict priority: class 0 drains headroom before class 1 sees it
    (shared-link, partial-satisfaction case)."""
    twin = TwinFabric(["a", "b", "c"], bw=100.0)
    paging = twin.open_flow("a", "b", priority=0)
    bulk1 = twin.open_flow("a", "b", priority=1)
    bulk2 = twin.open_flow("a", "c", priority=1)
    for _ in range(10):
        paging.demand = 60.0
        bulk1.demand = 100.0
        bulk2.demand = 100.0
        twin.tick(dt=1.0)
        assert paging.granted == 60.0
        # 40 bytes of a.tx headroom split max-min between the bulks
        assert bulk1.granted == bulk2.granted == 20.0


def tiered_topo():
    """2 AZs x 2 pods x 2 racks x 2 hosts with tapered uplinks."""
    t = Topology.tiered(2, 2, 2, uplink_bps=2e6, oversubscription=2.0)
    for rack in t.racks:
        for h in range(2):
            t.assign(f"{rack}h{h}", rack)
    return t


def tiered_hosts():
    t = Topology.tiered(2, 2, 2, uplink_bps=2e6)
    return [f"{rack}h{h}" for rack in t.racks for h in range(2)]


@pytest.mark.parametrize("seed", SEEDS)
def test_differential_fanin_lanes(seed):
    """Many parallel lanes per (src, dst) pair — VMD-style fan-in, where
    whole groups of flows share one path and one bottleneck."""
    rng = random.Random(seed)
    hosts = [f"h{i}" for i in range(6)]
    twin = TwinFabric(hosts, bw=1e6)
    # 4 fan-in groups x 8 lanes each, plus a few singleton flows
    for _ in range(4):
        src, dst = rng.sample(hosts, 2)
        for _ in range(8):
            twin.open_flow(src, dst, priority=rng.randint(0, 1))
    for _ in range(6):
        src, dst = rng.sample(hosts, 2)
        twin.open_flow(src, dst, priority=rng.randint(0, 1))
    for _ in range(150):
        for f in twin.flows:
            if rng.random() < 0.8:
                f.demand = rng.uniform(0.0, 3e5)
        twin.tick(dt=0.1)


@pytest.mark.parametrize("seed", SEEDS)
def test_differential_tiered_topology_churn(seed):
    """Random churn across a three-tier fabric: flows cross ToR, pod
    and AZ uplinks, and equal demands land on shared tier paths."""
    rng = random.Random(seed)
    hosts = tiered_hosts()
    twin = TwinFabric(hosts, bw=1e6, topology=tiered_topo())
    for _ in range(30):
        src, dst = rng.sample(hosts, 2)
        twin.open_flow(src, dst, priority=rng.randint(0, 2))
    for _ in range(120):
        for f in twin.flows:
            f.demand = rng.uniform(0.0, 4e5)
        if twin.flows and rng.random() < 0.05:
            twin.close_flow(rng.choice(twin.flows))
        if rng.random() < 0.1:
            src, dst = rng.sample(hosts, 2)
            twin.open_flow(src, dst, priority=rng.randint(0, 2))
        twin.tick(dt=0.1)


@pytest.mark.parametrize("seed", SEEDS[:3])
def test_differential_tiered_faults(seed):
    """Degraded NICs and an AZ-shaped partition on the tiered fabric."""
    rng = random.Random(seed)
    hosts = tiered_hosts()
    az0 = [h for h in hosts if h.startswith("az0")]
    twin = TwinFabric(hosts, bw=1e6, topology=tiered_topo())
    for _ in range(24):
        src, dst = rng.sample(hosts, 2)
        twin.open_flow(src, dst, priority=rng.randint(0, 1))
    degraded = set()
    for step in range(120):
        for f in twin.flows:
            f.demand = rng.uniform(0.0, 3e5)
        roll = rng.random()
        if roll < 0.05:
            h = rng.choice(hosts)
            twin.degrade_nic(h, rng.choice([0.0, 0.25, 0.5]))
            degraded.add(h)
        elif roll < 0.10 and degraded:
            twin.restore_nic(degraded.pop())
        if step == 40:
            twin.net.set_partition([az0])
        if step == 80:
            twin.net.clear_partition()
        twin.tick(dt=0.1)


def test_equal_demand_lanes_split_exactly():
    """16 identical lanes over one bottleneck: each gets capacity/16."""
    twin = TwinFabric(["a", "b"], bw=1600.0)
    lanes = [twin.open_flow("a", "b") for _ in range(16)]
    for lane in lanes:
        lane.demand = 1000.0
    twin.tick(dt=1.0)
    for lane in lanes:
        assert lane.granted == 100.0


def test_mixed_demands_peel_in_order():
    """Small-demand lanes saturate and leave the fill while big lanes on
    the same path keep absorbing headroom: the ascending-demand peel
    works per flow, not per path."""
    twin = TwinFabric(["a", "b", "c"], bw=1000.0)
    smalls = [twin.open_flow("a", "b") for _ in range(8)]
    bigs = [twin.open_flow("a", "b") for _ in range(8)]
    other = twin.open_flow("a", "c")
    for _ in range(5):
        for f in smalls:
            f.demand = 10.0
        for f in bigs:
            f.demand = 500.0
        other.demand = 500.0
        twin.tick(dt=1.0)
        # smalls fully satisfied; the rest split what remains
        for f in smalls:
            assert f.granted == 10.0
        for f in bigs:
            assert f.granted == pytest.approx(
                (1000.0 - 80.0) / 9, rel=1e-12)


def test_priority_classes_stay_separate():
    """Lanes of different priorities between the same pair are filled
    as separate classes: class 0 drains first, exactly."""
    twin = TwinFabric(["a", "b"], bw=100.0)
    paging = [twin.open_flow("a", "b", priority=0) for _ in range(14)]
    bulk = [twin.open_flow("a", "b", priority=1) for _ in range(14)]
    for _ in range(3):
        for f in paging:
            f.demand = 5.0
        for f in bulk:
            f.demand = 100.0
        twin.tick(dt=1.0)
        for f in paging:
            assert f.granted == 5.0
        total_bulk = sum(f.granted for f in bulk)
        assert total_bulk == pytest.approx(30.0)


def test_fill_converges_on_a_class_larger_than_10k_flows():
    """A distinct-demand class freezes one flow per event, so a
    10,001-flow class takes 10,001 events; the fill must run them all
    and grant every demand exactly. (The oracle is quadratic at this
    size, so this test checks the exact grants instead.)"""
    net = Network(default_bandwidth_bps=1e15)
    net.add_host("a")
    net.add_host("b")
    flows = [net.open_flow("a", "b") for _ in range(10_001)]
    for d, f in enumerate(flows, start=1):
        f.demand = float(d)
    net.arbitrate(0.1)
    assert [f.granted for f in flows] == [float(d) for d in
                                           range(1, 10_002)]
