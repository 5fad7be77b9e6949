"""Tests for the Virtualized Memory Device (servers, placement, namespaces)."""

import pytest

from repro.net import Network
from repro.sim import Simulator, TickEngine
from repro.vmd import RoundRobinPlacement, VMDCluster, VMDServer

MiB = 2 ** 20


# -- server -------------------------------------------------------------------

def test_server_allocate_on_write_only():
    s = VMDServer("i1", 100.0)
    assert s.used_bytes == 0.0
    assert s.allocate(30.0) == 30.0
    assert s.free_bytes == 70.0


def test_server_allocate_caps_at_capacity():
    s = VMDServer("i1", 100.0)
    assert s.allocate(150.0) == 100.0
    assert not s.has_free_memory()


def test_server_release():
    s = VMDServer("i1", 100.0)
    s.allocate(50.0)
    s.release(20.0)
    assert s.used_bytes == 30.0
    s.release(100.0)
    assert s.used_bytes == 0.0


def test_server_validation():
    with pytest.raises(ValueError):
        VMDServer("i", 0.0)
    with pytest.raises(ValueError):
        VMDServer("i", 10.0, service_bps=0.0)


# -- placement -----------------------------------------------------------------

def test_round_robin_spreads_chunks():
    servers = [VMDServer(f"i{k}", 1000.0) for k in range(3)]
    pl = RoundRobinPlacement(servers, chunk_bytes=10.0)
    plan = pl.split_write(30.0)
    assert set(plan.values()) == {10.0}
    assert len(plan) == 3


def test_round_robin_skips_full_servers():
    full = VMDServer("full", 10.0)
    full.allocate(10.0)
    free = VMDServer("free", 1000.0)
    pl = RoundRobinPlacement([full, free], chunk_bytes=10.0)
    plan = pl.split_write(20.0)
    assert plan == {free: 20.0}


def test_round_robin_drops_unplaceable_bytes():
    s = VMDServer("i", 10.0)
    pl = RoundRobinPlacement([s], chunk_bytes=10.0)
    plan = pl.split_write(100.0)
    assert sum(plan.values()) == 10.0


def test_round_robin_cursor_advances_across_calls():
    servers = [VMDServer(f"i{k}", 1000.0) for k in range(2)]
    pl = RoundRobinPlacement(servers, chunk_bytes=5.0)
    first = pl.split_write(5.0)
    second = pl.split_write(5.0)
    assert list(first) != list(second)


def test_placement_validation():
    with pytest.raises(ValueError):
        RoundRobinPlacement([])
    with pytest.raises(ValueError):
        RoundRobinPlacement([VMDServer("i", 1.0)], chunk_bytes=0)


# -- namespace over the network ---------------------------------------------------

def build_vmd(n_servers=1, bw=100.0, capacity=1000.0, chunk=10.0):
    sim = Simulator()
    net = Network(default_bandwidth_bps=bw, latency_s=0.0)
    for h in ("src", "dst"):
        net.add_host(h)
    engine = TickEngine(sim, dt=1.0)
    engine.add_arbiter(net)
    servers = []
    for k in range(n_servers):
        host = f"i{k}"
        net.add_host(host)
        servers.append(VMDServer(host, capacity))
    vmd = VMDCluster(net, engine, servers, placement_chunk_bytes=chunk)
    engine.start()
    return sim, net, engine, vmd


def test_namespace_write_allocates_on_servers():
    sim, net, engine, vmd = build_vmd()
    ns = vmd.create_namespace("vm1")
    q = ns.open_queue("writeback", "write", host="src")
    q.demand = 50.0
    sim.run(until=1.0)
    assert q.granted == pytest.approx(50.0)
    assert vmd.total_used_bytes() == pytest.approx(50.0)
    assert ns.used_bytes == pytest.approx(50.0)


def test_namespace_write_limited_by_network():
    sim, net, engine, vmd = build_vmd(bw=40.0)
    ns = vmd.create_namespace("vm1")
    q = ns.open_queue("writeback", "write", host="src")
    q.demand = 100.0
    sim.run(until=1.0)
    assert q.granted == pytest.approx(40.0)


def test_namespace_read_from_destination_host():
    """The portable-device property: after writing from src, dst can read."""
    sim, net, engine, vmd = build_vmd()
    ns = vmd.create_namespace("vm1")
    w = ns.open_queue("writeback", "write", host="src")
    w.demand = 80.0
    sim.run(until=1.0)
    r = ns.open_queue("umem", "read", host="dst")
    r.demand = 60.0
    sim.run(until=2.0)
    assert r.granted == pytest.approx(60.0)


def test_namespace_requires_host():
    sim, net, engine, vmd = build_vmd()
    ns = vmd.create_namespace("vm1")
    with pytest.raises(ValueError):
        ns.open_queue("q", "read")
    with pytest.raises(ValueError):
        ns.open_queue("q", "read", host="nope")


def test_namespace_reads_spread_by_stored_share():
    sim, net, engine, vmd = build_vmd(n_servers=2, bw=1000.0)
    ns = vmd.create_namespace("vm1")
    w = ns.open_queue("wb", "write", host="src")
    w.demand = 100.0
    sim.run(until=1.0)
    r = ns.open_queue("rd", "read", host="dst")
    r.demand = 100.0
    sim.run(until=2.0)
    # both servers hold ~half the data; each read flow carried ~half
    flows = list(r.flows.values())
    assert len(flows) == 2
    assert flows[0].total_bytes == pytest.approx(50.0, rel=0.2)


def test_namespace_write_grant_stalls_when_servers_full():
    sim, net, engine, vmd = build_vmd(capacity=30.0)
    ns = vmd.create_namespace("vm1")
    q = ns.open_queue("wb", "write", host="src")
    q.demand = 100.0
    sim.run(until=1.0)
    assert vmd.total_used_bytes() == pytest.approx(30.0)
    assert q.granted <= 30.0 + 1e-9


def test_namespace_release_returns_memory():
    sim, net, engine, vmd = build_vmd()
    ns = vmd.create_namespace("vm1")
    q = ns.open_queue("wb", "write", host="src")
    q.demand = 50.0
    sim.run(until=1.0)
    ns.release(20.0)
    assert ns.used_bytes == pytest.approx(30.0)
    assert vmd.total_used_bytes() == pytest.approx(30.0)


def test_closed_queue_closes_flows():
    sim, net, engine, vmd = build_vmd()
    ns = vmd.create_namespace("vm1")
    q = ns.open_queue("wb", "write", host="src")
    q.demand = 50.0
    sim.run(until=1.0)
    flows = list(q.flows.values())
    q.close()
    assert all(not f.active for f in flows)
    sim.run(until=2.0)  # must not crash


def test_two_namespaces_isolated_accounting():
    sim, net, engine, vmd = build_vmd(bw=1000.0)
    ns1 = vmd.create_namespace("vm1")
    ns2 = vmd.create_namespace("vm2")
    q1 = ns1.open_queue("wb", "write", host="src")
    q2 = ns2.open_queue("wb", "write", host="src")
    q1.demand = 30.0
    q2.demand = 70.0
    sim.run(until=1.0)
    assert ns1.used_bytes == pytest.approx(30.0)
    assert ns2.used_bytes == pytest.approx(70.0)


def test_duplicate_namespace_rejected():
    sim, net, engine, vmd = build_vmd()
    vmd.create_namespace("vm1")
    with pytest.raises(ValueError):
        vmd.create_namespace("vm1")


def test_cluster_validation():
    sim = Simulator()
    net = Network()
    engine = TickEngine(sim)
    with pytest.raises(ValueError):
        VMDCluster(net, engine, [])
    with pytest.raises(ValueError):
        VMDCluster(net, engine, [VMDServer("ghost", 10.0)])


def test_disk_backed_server_caps_service_rate():
    sim = Simulator()
    net = Network(default_bandwidth_bps=1000.0, latency_s=0.0)
    net.add_host("src")
    net.add_host("i0")
    engine = TickEngine(sim, dt=1.0)
    engine.add_arbiter(net)
    server = VMDServer("i0", 1000.0, service_bps=25.0)  # disk tier
    vmd = VMDCluster(net, engine, [server])
    ns = vmd.create_namespace("vm1")
    q = ns.open_queue("wb", "write", host="src")
    engine.start()
    q.demand = 100.0
    sim.run(until=1.0)
    assert q.granted == pytest.approx(25.0)
