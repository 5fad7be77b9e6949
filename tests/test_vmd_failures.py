"""Failure injection: VMD donor crashes, with and without replication.

The paper's VMD keeps exactly one copy of each cold page on a donor
host; losing that donor makes the VM's cold state unreachable — a real
availability hazard of the design. These tests inject donor failures
and verify both the hazard (single copy: reads stall) and the extension
that closes it (replication ≥ 2: reads continue; writes pay the
amplification).
"""

import pytest

from repro.net import Network
from repro.sim import Simulator, TickEngine
from repro.vmd import VMDNamespace, VMDServer
from repro.vmd.placement import RoundRobinPlacement


def build(n_servers=2, bw=100.0, capacity=10_000.0, replication=1):
    sim = Simulator()
    net = Network(default_bandwidth_bps=bw, latency_s=0.0)
    net.add_host("src")
    net.add_host("dst")
    servers = []
    for k in range(n_servers):
        net.add_host(f"i{k}")
        servers.append(VMDServer(f"i{k}", capacity))
    engine = TickEngine(sim, dt=1.0)
    engine.add_arbiter(net)
    ns = VMDNamespace("vm1", net, servers,
                      RoundRobinPlacement(servers, chunk_bytes=10.0),
                      replication=replication)
    engine.add_participant(ns, order=10)
    engine.add_arbiter(ns, order=10)
    engine.start()
    return sim, net, servers, ns


def test_replication_validation():
    net = Network()
    net.add_host("i0")
    s = VMDServer("i0", 10.0)
    with pytest.raises(ValueError):
        VMDNamespace("x", net, [s], replication=2)
    with pytest.raises(ValueError):
        VMDNamespace("x", net, [s], replication=0)


def test_failed_server_rejects_placement():
    s = VMDServer("i0", 100.0)
    placement = RoundRobinPlacement([s], chunk_bytes=10.0)
    s.fail()
    assert placement.split_write(10.0) == {}
    s.recover()
    assert placement.split_write(10.0) == {s: 10.0}


def test_single_copy_reads_stall_after_donor_failure():
    sim, net, servers, ns = build(n_servers=1)
    w = ns.open_queue("wb", "write", host="src")
    w.demand = 80.0
    sim.run(until=1.0)
    assert ns.used_bytes == pytest.approx(80.0)
    servers[0].fail()
    r = ns.open_queue("rd", "read", host="dst")
    r.demand = 50.0
    sim.run(until=2.0)
    assert r.granted == 0.0  # the cold pages are unreachable
    servers[0].recover()
    r.demand = 50.0
    sim.run(until=3.0)
    assert r.granted == pytest.approx(50.0)


def test_replicated_writes_amplify_on_the_wire():
    sim, net, servers, ns = build(n_servers=2, bw=1000.0, replication=2)
    w = ns.open_queue("wb", "write", host="src")
    w.demand = 60.0
    sim.run(until=1.0)
    # the caller sees 60 logical bytes written...
    assert w.granted == pytest.approx(60.0)
    # ...but both copies landed on the donors
    assert ns.used_bytes == pytest.approx(120.0)
    assert net.nic("src").tx.bytes_carried == pytest.approx(120.0)


def test_replicated_reads_survive_a_donor_failure():
    sim, net, servers, ns = build(n_servers=2, bw=1000.0, replication=2)
    w = ns.open_queue("wb", "write", host="src")
    w.demand = 60.0
    sim.run(until=1.0)
    servers[0].fail()
    r = ns.open_queue("rd", "read", host="dst")
    r.demand = 40.0
    sim.run(until=2.0)
    assert r.granted == pytest.approx(40.0)  # replica on i1 serves


def test_writes_avoid_failed_donor():
    sim, net, servers, ns = build(n_servers=2, bw=1000.0)
    servers[0].fail()
    w = ns.open_queue("wb", "write", host="src")
    w.demand = 50.0
    sim.run(until=1.0)
    assert servers[0].used_bytes == 0.0
    assert servers[1].used_bytes == pytest.approx(50.0)


def test_preload_with_replication():
    sim, net, servers, ns = build(n_servers=2, replication=2)
    placed = ns.preload(100.0)
    assert placed == pytest.approx(100.0)
    assert ns.used_bytes == pytest.approx(200.0)

def test_fail_with_lose_contents_destroys_stored_bytes():
    s = VMDServer("i0", 100.0)
    s.allocate(60.0)
    s.fail(lose_contents=True)
    assert s.contents_lost
    assert s.used_bytes == 0.0


def test_recover_readmits_writes_after_content_loss():
    sim, net, servers, ns = build(n_servers=1, bw=1000.0)
    w = ns.open_queue("wb", "write", host="src")
    w.demand = 40.0
    sim.run(until=1.0)
    servers[0].fail(lose_contents=True)
    ns.handle_server_loss(servers[0])
    assert ns.data_lost          # single copy: the loss is unrecoverable
    assert ns.used_bytes == 0.0
    # the donor reboots empty — allocation is on-write, so fresh writes
    # must be admitted immediately
    servers[0].recover()
    assert not servers[0].contents_lost
    w.demand = 30.0
    sim.run(until=2.0)
    assert w.granted == pytest.approx(30.0)
    assert servers[0].used_bytes == pytest.approx(30.0)


def test_content_preserving_failure_keeps_stored_bytes():
    sim, net, servers, ns = build(n_servers=1, bw=1000.0)
    w = ns.open_queue("wb", "write", host="src")
    w.demand = 40.0
    sim.run(until=1.0)
    servers[0].fail()            # reboot: contents survive
    servers[0].recover()
    assert ns.used_bytes == pytest.approx(40.0)
    r = ns.open_queue("rd", "read", host="dst")
    r.demand = 40.0
    sim.run(until=2.0)
    assert r.granted == pytest.approx(40.0)


def test_replicated_loss_triggers_background_repair():
    sim, net, servers, ns = build(n_servers=3, bw=1000.0, replication=2)
    w = ns.open_queue("wb", "write", host="src")
    w.demand = 90.0
    sim.run(until=1.0)
    assert ns.used_bytes == pytest.approx(180.0)
    lost = ns._stored[servers[0]]
    assert lost > 0
    servers[0].fail(lose_contents=True)
    backlog = ns.handle_server_loss(servers[0])
    assert not ns.data_lost
    assert backlog == pytest.approx(lost)
    sim.run(until=10.0)
    # re-replication restored every lost copy onto the survivors
    assert ns.repair_pending_bytes == 0.0
    assert ns.repaired_bytes == pytest.approx(lost)
    assert ns.used_bytes == pytest.approx(180.0)
    assert ns._stored[servers[0]] == 0.0


def test_replicated_write_uses_one_placement_split():
    """One ``split_write`` per write queue per tick, scaled by r: the
    round-robin cursor advances as if unreplicated, and the *merged*
    replica traffic (not each copy) is capped by the server's service
    rate."""
    sim, net, servers, ns = build(n_servers=2, bw=1000.0, replication=2)
    for s in servers:
        s.service_bps = 40.0
    w = ns.open_queue("wb", "write", host="src")
    w.demand = 60.0
    sim.run(until=1.0)
    # plan {i0: 30, i1: 30} x2 -> 60 per server, capped at 40 service
    for s in servers:
        assert w.flows[s].granted == pytest.approx(40.0)
        assert s.used_bytes == pytest.approx(40.0)
    assert w.granted == pytest.approx(40.0)  # 80 wire bytes / r
    # exactly demand/chunk cursor steps were consumed, not r times that
    assert ns.placement._cursor == 6


def test_repair_skips_a_target_that_died_mid_tick():
    """A repair target that dies between ``_plan_repair`` and
    ``arbitrate`` must not receive bytes: the backlog keeps them and
    the next tick re-plans onto survivors."""
    sim, net, servers, ns = build(n_servers=3, bw=1000.0, replication=2)
    w = ns.open_queue("wb", "write", host="src")
    w.demand = 90.0
    sim.run(until=1.0)
    lost = ns._stored[servers[0]]
    servers[0].fail(lose_contents=True)
    backlog = ns.handle_server_loss(servers[0])
    assert backlog == pytest.approx(lost)
    # drive one tick by hand so the target can die mid-protocol
    ns.pre_tick(1.0)
    assert ns._repair_plan, "repair must have been planned"
    targets = list(ns._repair_plan)
    for t in targets:
        t.fail()  # content-preserving crash after planning
    before = {t: t.used_bytes for t in targets}
    net.arbitrate(1.0)
    ns.arbitrate(1.0)
    # the wire moved bytes, but none landed on a corpse
    assert ns.repaired_bytes == 0.0
    assert ns.repair_pending_bytes == pytest.approx(lost)
    for t in targets:
        assert t.used_bytes == before[t]
    # targets recover: background repair completes normally
    for t in targets:
        t.recover()
    sim.run(until=12.0)
    assert ns.repair_pending_bytes == 0.0
    assert ns.repaired_bytes == pytest.approx(lost)
