"""Differential tests: the default arbiter vs the reference oracle.

The contract is the max-min bottleneck certificate
(:func:`repro.net.maxmin_violations`): after every tick, every grant is
at most its demand and every under-served flow crosses a link saturated
by its own and higher classes on which no same-class flow gets more.
The default path (``Network(fast_path=True)``) solves each class by level
events, the reference by iterated progressive filling, so their floats
differ in the last bits; they must agree with each other to rel 1e-9
(abs 1e-6 B) on every grant, lifetime byte count and link counter.
These tests drive twin networks (one per implementation) through
identical randomized churn — multi-priority demand, flow open/close,
link degradation, fabric partitions, rack and three-tier topologies,
many parallel lanes sharing one path — and check both after every tick.
"""

import math
import random

import pytest

from repro.net import Network, maxmin_violations
from repro.net.certificate import ABS_TOL, REL_TOL
from repro.sched.topology import Topology

SEEDS = [0, 1, 7, 42, 1234]


def agree(a, b):
    """The twin-agreement tolerance: rel 1e-9, abs 1e-6 bytes."""
    return math.isclose(a, b, rel_tol=REL_TOL, abs_tol=ABS_TOL)


def assert_certified(net, demands, dt):
    """Fail with the first violations if ``net``'s grants for this tick
    break the max-min certificate."""
    problems = maxmin_violations(net, demands, dt)
    assert not problems, problems[:5]


class TwinFabric:
    """Two identically-configured networks, one per arbiter, driven in
    lockstep: every mutation is applied to both, every ``arbitrate`` is
    followed by the certificate check and a grant comparison."""

    def __init__(self, hosts, bw=1e6, latency_s=0.0,
                 topology_factory=None):
        self.fast = Network(default_bandwidth_bps=bw, latency_s=latency_s,
                            fast_path=True)
        self.ref = Network(default_bandwidth_bps=bw, latency_s=latency_s,
                           fast_path=False)
        assert self.fast.fast_path and not self.ref.fast_path
        if topology_factory is not None:
            self.fast.set_topology(topology_factory())
            self.ref.set_topology(topology_factory())
        for h in hosts:
            self.fast.add_host(h)
            self.ref.add_host(h)
        self.pairs = []  # [(fast_flow, ref_flow)]

    def open_flow(self, src, dst, priority=1):
        pair = (self.fast.open_flow(src, dst, priority=priority),
                self.ref.open_flow(src, dst, priority=priority))
        self.pairs.append(pair)
        return pair

    def close_pair(self, pair):
        pair[0].close()
        pair[1].close()
        self.pairs.remove(pair)

    def set_demand(self, pair, demand):
        pair[0].demand = demand
        pair[1].demand = demand

    def degrade_nic(self, host, factor):
        for net in (self.fast, self.ref):
            net.nic(host).tx.degrade(factor)
            net.nic(host).rx.degrade(factor)

    def restore_nic(self, host):
        for net in (self.fast, self.ref):
            net.nic(host).tx.restore()
            net.nic(host).rx.restore()

    def set_partition(self, groups):
        self.fast.set_partition(groups)
        self.ref.set_partition(groups)

    def clear_partition(self):
        self.fast.clear_partition()
        self.ref.clear_partition()

    def tick(self, dt):
        fast_demands = [(ff, ff.demand) for ff, _ in self.pairs]
        ref_demands = [(rf, rf.demand) for _, rf in self.pairs]
        self.fast.arbitrate(dt)
        self.ref.arbitrate(dt)
        assert_certified(self.fast, fast_demands, dt)
        assert_certified(self.ref, ref_demands, dt)
        for ff, rf in self.pairs:
            assert agree(ff.granted, rf.granted), (
                f"grant divergence on {ff.name}: "
                f"fast={ff.granted!r} ref={rf.granted!r}")
            assert agree(ff.total_bytes, rf.total_bytes)

    def assert_links_agree(self):
        for h in self.fast._nics:
            for fast, ref in ((self.fast.nic(h).tx, self.ref.nic(h).tx),
                              (self.fast.nic(h).rx, self.ref.nic(h).rx)):
                assert agree(fast.bytes_carried, ref.bytes_carried), (
                    f"{fast.name}: fast={fast.bytes_carried!r} "
                    f"ref={ref.bytes_carried!r}")


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
        for pair in twin.pairs:
            if rng.random() < 0.8:
                twin.set_demand(pair, rng.uniform(0.0, 3e6))
        if twin.pairs and rng.random() < 0.05:
            twin.close_pair(rng.choice(twin.pairs))
        if rng.random() < 0.1:
            src, dst = rng.sample(hosts, 2)
            twin.open_flow(src, dst, priority=rng.randint(0, 2))
        twin.tick(dt=rng.choice([0.05, 0.1, 0.25]))
    twin.assert_links_agree()


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

    twin = TwinFabric(hosts, bw=1e6, topology_factory=topo)
    for _ in range(20):
        src, dst = rng.sample(hosts, 2)
        twin.open_flow(src, dst, priority=rng.randint(0, 1))
    for _ in range(150):
        for pair in twin.pairs:
            twin.set_demand(pair, rng.uniform(0.0, 4e6))
        twin.tick(dt=0.1)
    twin.assert_links_agree()


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
        for pair in twin.pairs:
            twin.set_demand(pair, rng.uniform(0.0, 2e6))
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
            twin.set_partition([set(rng.sample(hosts, k))])
            partitioned = True
        elif roll < 0.18 and partitioned:
            twin.clear_partition()
            partitioned = False
        twin.tick(dt=0.1)
    twin.assert_links_agree()


def test_differential_intra_host_and_idle_flows():
    """Intra-host flows (no links) and long-idle flows are granted
    alike — the default path's idle-skip must not change results."""
    hosts = ["a", "b", "c"]
    twin = TwinFabric(hosts, bw=100.0)
    local = twin.open_flow("a", "a")
    busy = twin.open_flow("a", "b")
    idle = twin.open_flow("b", "c")
    twin.set_demand(local, 500.0)
    twin.set_demand(busy, 500.0)
    twin.tick(dt=1.0)
    assert local[0].granted == 500.0
    assert busy[0].granted == 100.0
    assert idle[0].granted == 0.0
    # idle stays quiet for many ticks, then wakes
    for _ in range(50):
        twin.set_demand(busy, 500.0)
        twin.tick(dt=1.0)
    twin.set_demand(idle, 40.0)
    twin.set_demand(busy, 500.0)
    twin.tick(dt=1.0)
    assert idle[0].granted == 40.0
    twin.assert_links_agree()


def test_differential_priority_preemption_exact():
    """Strict priority: class 0 drains headroom before class 1 sees it,
    on both paths (shared-link, partial-satisfaction case)."""
    twin = TwinFabric(["a", "b", "c"], bw=100.0)
    paging = twin.open_flow("a", "b", priority=0)
    bulk1 = twin.open_flow("a", "b", priority=1)
    bulk2 = twin.open_flow("a", "c", priority=1)
    for _ in range(10):
        twin.set_demand(paging, 60.0)
        twin.set_demand(bulk1, 100.0)
        twin.set_demand(bulk2, 100.0)
        twin.tick(dt=1.0)
        assert paging[0].granted == 60.0
        # 40 bytes of a.tx headroom split max-min between the bulks
        assert bulk1[0].granted == bulk2[0].granted == 20.0


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
        for pair in twin.pairs:
            if rng.random() < 0.8:
                twin.set_demand(pair, rng.uniform(0.0, 3e5))
        twin.tick(dt=0.1)
    twin.assert_links_agree()


@pytest.mark.parametrize("seed", SEEDS)
def test_differential_tiered_topology_churn(seed):
    """Random churn across a three-tier fabric: flows cross ToR, pod
    and AZ uplinks, and equal demands land on shared tier paths."""
    rng = random.Random(seed)
    hosts = tiered_hosts()
    twin = TwinFabric(hosts, bw=1e6, topology_factory=tiered_topo)
    for _ in range(30):
        src, dst = rng.sample(hosts, 2)
        twin.open_flow(src, dst, priority=rng.randint(0, 2))
    for _ in range(120):
        for pair in twin.pairs:
            twin.set_demand(pair, rng.uniform(0.0, 4e5))
        if twin.pairs and rng.random() < 0.05:
            twin.close_pair(rng.choice(twin.pairs))
        if rng.random() < 0.1:
            src, dst = rng.sample(hosts, 2)
            twin.open_flow(src, dst, priority=rng.randint(0, 2))
        twin.tick(dt=0.1)
    twin.assert_links_agree()


@pytest.mark.parametrize("seed", SEEDS[:3])
def test_differential_tiered_faults(seed):
    """Degraded NICs and an AZ-shaped partition on the tiered fabric."""
    rng = random.Random(seed)
    hosts = tiered_hosts()
    az0 = [h for h in hosts if h.startswith("az0")]
    twin = TwinFabric(hosts, bw=1e6, topology_factory=tiered_topo)
    for _ in range(24):
        src, dst = rng.sample(hosts, 2)
        twin.open_flow(src, dst, priority=rng.randint(0, 1))
    degraded = set()
    for step in range(120):
        for pair in twin.pairs:
            twin.set_demand(pair, rng.uniform(0.0, 3e5))
        roll = rng.random()
        if roll < 0.05:
            h = rng.choice(hosts)
            twin.degrade_nic(h, rng.choice([0.0, 0.25, 0.5]))
            degraded.add(h)
        elif roll < 0.10 and degraded:
            twin.restore_nic(degraded.pop())
        if step == 40:
            twin.set_partition([az0])
        if step == 80:
            twin.clear_partition()
        twin.tick(dt=0.1)
    twin.assert_links_agree()


def test_equal_demand_lanes_split_exactly():
    """16 identical lanes over one bottleneck: each gets capacity/16."""
    twin = TwinFabric(["a", "b"], bw=1600.0)
    lanes = [twin.open_flow("a", "b") for _ in range(16)]
    for lane in lanes:
        twin.set_demand(lane, 1000.0)
    twin.tick(dt=1.0)
    for lane in lanes:
        assert lane[0].granted == 100.0


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
            twin.set_demand(f, 10.0)
        for f in bigs:
            twin.set_demand(f, 500.0)
        twin.set_demand(other, 500.0)
        twin.tick(dt=1.0)
        # smalls fully satisfied; the rest split what remains
        for f in smalls:
            assert f[0].granted == 10.0
        for f in bigs:
            assert f[0].granted == pytest.approx(
                (1000.0 - 80.0) / 9, rel=1e-12)


def test_priority_classes_stay_separate():
    """Lanes of different priorities between the same pair are filled
    as separate classes: class 0 drains first, exactly."""
    twin = TwinFabric(["a", "b"], bw=100.0)
    paging = [twin.open_flow("a", "b", priority=0) for _ in range(14)]
    bulk = [twin.open_flow("a", "b", priority=1) for _ in range(14)]
    for _ in range(3):
        for f in paging:
            twin.set_demand(f, 5.0)
        for f in bulk:
            twin.set_demand(f, 100.0)
        twin.tick(dt=1.0)
        for f in paging:
            assert f[0].granted == 5.0
        total_bulk = sum(f[0].granted for f in bulk)
        assert total_bulk == pytest.approx(30.0)


def test_fill_converges_on_a_class_larger_than_10k_flows():
    """A distinct-demand class freezes one flow per event, so a
    10,001-flow class takes 10,001 events; the fill must run them all
    and grant every demand exactly. (The reference fill is quadratic at
    this size, so only the default network runs.)"""
    net = Network(default_bandwidth_bps=1e15)
    net.add_host("a")
    net.add_host("b")
    flows = [net.open_flow("a", "b") for _ in range(10_001)]
    for d, f in enumerate(flows, start=1):
        f.demand = float(d)
    net.arbitrate(0.1)
    assert [f.granted for f in flows] == [float(d) for d in
                                           range(1, 10_002)]
