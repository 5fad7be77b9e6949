"""Unit tests for the flow-level network substrate."""

import pytest

from repro.net import ChannelClosed, Network, StreamChannel
from repro.sim import Simulator, TickEngine
from tests.net_reference import reference_grants


def make_net(hosts=("a", "b", "c"), bw=100.0):
    """A network with small integral capacities for easy math (bytes/s)."""
    net = Network(default_bandwidth_bps=bw, latency_s=0.0)
    for h in hosts:
        net.add_host(h)
    return net


def test_add_host_and_lookup():
    net = make_net()
    assert net.has_host("a")
    assert not net.has_host("z")
    assert net.nic("a").tx.capacity_bps == 100.0


def test_duplicate_host_rejected():
    net = make_net()
    with pytest.raises(ValueError):
        net.add_host("a")


def test_unknown_host_flow_rejected():
    net = make_net()
    with pytest.raises(ValueError):
        net.open_flow("a", "nope")


def test_single_flow_gets_link_capacity():
    net = make_net()
    f = net.open_flow("a", "b")
    f.demand = 1000.0
    net.arbitrate(dt=1.0)
    assert f.granted == pytest.approx(100.0)


def test_demand_below_capacity_fully_granted():
    net = make_net()
    f = net.open_flow("a", "b")
    f.demand = 30.0
    net.arbitrate(dt=1.0)
    assert f.granted == pytest.approx(30.0)


def test_two_flows_share_tx_link_fairly():
    net = make_net()
    f1 = net.open_flow("a", "b")
    f2 = net.open_flow("a", "c")
    f1.demand = f2.demand = 1000.0
    net.arbitrate(dt=1.0)
    assert f1.granted == pytest.approx(50.0)
    assert f2.granted == pytest.approx(50.0)


def test_max_min_redistributes_unused_share():
    net = make_net()
    small = net.open_flow("a", "b")
    big = net.open_flow("a", "c")
    small.demand = 10.0
    big.demand = 1000.0
    net.arbitrate(dt=1.0)
    assert small.granted == pytest.approx(10.0)
    assert big.granted == pytest.approx(90.0)


def test_rx_link_is_also_a_bottleneck():
    net = make_net()
    f1 = net.open_flow("a", "c")
    f2 = net.open_flow("b", "c")
    f1.demand = f2.demand = 1000.0
    net.arbitrate(dt=1.0)
    # both flows share c.rx
    assert f1.granted + f2.granted == pytest.approx(100.0)
    assert f1.granted == pytest.approx(f2.granted)


def test_strict_priority_preempts():
    net = make_net()
    urgent = net.open_flow("a", "b", priority=0)
    bulk = net.open_flow("a", "b", priority=1)
    urgent.demand = 80.0
    bulk.demand = 1000.0
    net.arbitrate(dt=1.0)
    assert urgent.granted == pytest.approx(80.0)
    assert bulk.granted == pytest.approx(20.0)


def test_priority_leftover_goes_to_lower_class():
    net = make_net()
    urgent = net.open_flow("a", "b", priority=0)
    bulk = net.open_flow("a", "b", priority=1)
    urgent.demand = 5.0
    bulk.demand = 1000.0
    net.arbitrate(dt=1.0)
    assert urgent.granted == pytest.approx(5.0)
    assert bulk.granted == pytest.approx(95.0)


def test_intra_host_flow_unconstrained():
    net = make_net()
    f = net.open_flow("a", "a")
    f.demand = 1e9
    net.arbitrate(dt=1.0)
    assert f.granted == pytest.approx(1e9)


def test_closed_flow_reaped_and_ignored():
    net = make_net()
    f = net.open_flow("a", "b")
    f.close()
    other = net.open_flow("a", "b")
    other.demand = 1000.0
    net.arbitrate(dt=1.0)
    assert other.granted == pytest.approx(100.0)
    assert f not in net.flows


@pytest.mark.parametrize("flows_first", [True, False])
def test_partition_implicit_group_never_matches_a_named_group(flows_first):
    """Hosts named in no group share one implicit group; empty groups
    ahead of a named one must not give it the implicit group's id. The
    partition cuts flows opened before it as well as after it."""
    net = make_net()
    if flows_first:
        cut = net.open_flow("a", "b")
        ok = net.open_flow("b", "c")
    net.set_partition([[], [], ["a"]])
    assert not net.reachable("a", "b")
    assert net.reachable("b", "c")
    if not flows_first:
        cut = net.open_flow("a", "b")
        ok = net.open_flow("b", "c")
    cut.demand = ok.demand = 50.0
    demands = [(cut, 50.0), (ok, 50.0)]
    net.arbitrate(dt=1.0)
    assert cut.granted == 0.0
    assert ok.granted == 50.0
    assert reference_grants(net, demands, 1.0) == {cut: 0.0, ok: 50.0}


def test_total_bytes_accumulates():
    net = make_net()
    f = net.open_flow("a", "b")
    for _ in range(3):
        f.demand = 1000.0
        net.arbitrate(dt=1.0)
    assert f.total_bytes == pytest.approx(300.0)
    assert net.nic("a").tx.bytes_carried == pytest.approx(300.0)


def test_dt_scales_capacity():
    net = make_net()
    f = net.open_flow("a", "b")
    f.demand = 1000.0
    net.arbitrate(dt=0.1)
    assert f.granted == pytest.approx(10.0)


def test_rtt():
    net = Network(latency_s=0.001)
    net.add_host("a")
    assert net.rtt("a", "a") == 0.0
    net.add_host("b")
    assert net.rtt("a", "b") == pytest.approx(0.002)


def test_invalid_parameters():
    with pytest.raises(ValueError):
        Network(default_bandwidth_bps=0)
    with pytest.raises(ValueError):
        Network(latency_s=-1)


# -- StreamChannel -----------------------------------------------------------

def setup_channel(bw=100.0, dt=1.0, priority=1, cap=None):
    sim = Simulator()
    net = make_net(bw=bw)
    eng = TickEngine(sim, dt=dt)
    eng.add_arbiter(net)
    chan = StreamChannel(sim, net, "a", "b", priority=priority,
                         demand_cap_bps=cap)
    eng.add_participant(chan)
    eng.start()
    return sim, net, eng, chan


def test_channel_delivers_job_and_fires_event():
    sim, net, eng, chan = setup_channel()
    ev = chan.send(250.0, info="blob", want_event=True)
    sim.run_until_event(ev, limit=100.0)
    # 250 bytes at 100 B/s -> 3 ticks (ends during tick at t=3)
    assert sim.now == pytest.approx(3.0)
    assert ev.value == "blob"
    assert chan.backlog == 0.0


def test_channel_jobs_complete_fifo():
    sim, net, eng, chan = setup_channel()
    order = []
    chan.send(100.0, info=1, on_complete=lambda j: order.append(j.info))
    chan.send(100.0, info=2, on_complete=lambda j: order.append(j.info))
    sim.run(until=5.0)
    assert order == [1, 2]


def test_channel_zero_byte_message_is_fifo_barrier():
    sim, net, eng, chan = setup_channel()
    order = []
    chan.send(100.0, on_complete=lambda j: order.append("data"))
    ev = chan.send(0.0, info="ctl", want_event=True,
                   on_complete=lambda j: order.append("ctl"))
    sim.run(until=2.0)
    assert ev.triggered and ev.value == "ctl"
    assert order == ["data", "ctl"]


def test_channel_demand_cap_throttles():
    sim, net, eng, chan = setup_channel(cap=10.0)  # 10 B/s self-cap
    ev = chan.send(50.0, want_event=True)
    sim.run_until_event(ev, limit=100.0)
    assert sim.now == pytest.approx(5.0)


def test_channel_close_drops_backlog():
    sim, net, eng, chan = setup_channel()
    chan.send(1000.0)
    chan.close()
    assert chan.backlog == 0.0
    with pytest.raises(RuntimeError):
        chan.send(1.0)
    sim.run(until=2.0)  # must not crash after close


def test_channel_negative_size_rejected():
    sim, net, eng, chan = setup_channel()
    with pytest.raises(ValueError):
        chan.send(-5.0)


def test_two_channels_share_bandwidth():
    sim = Simulator()
    net = make_net(bw=100.0)
    eng = TickEngine(sim, dt=1.0)
    eng.add_arbiter(net)
    c1 = StreamChannel(sim, net, "a", "b")
    c2 = StreamChannel(sim, net, "a", "b")
    eng.add_participant(c1)
    eng.add_participant(c2)
    eng.start()
    c1.send(500.0)
    c2.send(500.0)
    sim.run(until=10.0)
    assert c1.bytes_delivered == pytest.approx(500.0)
    assert c2.bytes_delivered == pytest.approx(500.0)


def test_channel_latency_delays_completion():
    sim = Simulator()
    net = Network(default_bandwidth_bps=100.0, latency_s=0.5)
    net.add_host("a")
    net.add_host("b")
    eng = TickEngine(sim, dt=1.0)
    eng.add_arbiter(net)
    chan = StreamChannel(sim, net, "a", "b")
    eng.add_participant(chan)
    eng.start()
    fired = []
    chan.send(100.0, on_complete=lambda j: fired.append(sim.now))
    sim.run(until=3.0)
    assert fired == [pytest.approx(1.5)]


def test_channel_close_fails_pending_job_events():
    sim = Simulator()
    net = make_net(bw=100.0)
    eng = TickEngine(sim, dt=1.0)
    eng.add_arbiter(net)
    chan = StreamChannel(sim, net, "a", "b")
    eng.add_participant(chan)
    eng.start()
    done = chan.send(1e6, want_event=True)  # far more than can drain
    caught = []
    done.add_callback(lambda e: caught.append((sim.now, e.value)))
    sim.call_in(2.5, chan.close)
    sim.run(until=10.0)
    assert done.failed
    # the waiter woke at the close instead of hanging forever
    assert len(caught) == 1
    assert caught[0][0] == 2.5
    assert isinstance(caught[0][1], ChannelClosed)


def test_channel_close_fails_job_in_latency_window():
    sim = Simulator()
    net = Network(default_bandwidth_bps=100.0, latency_s=0.5)
    net.add_host("a")
    net.add_host("b")
    eng = TickEngine(sim, dt=1.0)
    eng.add_arbiter(net)
    chan = StreamChannel(sim, net, "a", "b")
    eng.add_participant(chan)
    eng.start()
    done = chan.send(100.0, want_event=True)
    fired = []
    done.add_callback(lambda e: fired.append((sim.now, e.failed)))
    # last byte moves at the t=1.0 tick; delivery would land at t=1.5 —
    # the close at t=1.2 hits the propagation-latency window
    sim.call_in(1.2, chan.close)
    sim.run(until=5.0)
    assert fired == [(1.2, True)]
    assert isinstance(done.value, ChannelClosed)
    assert chan._landing == []  # no orphaned landing jobs


def test_rtt_topology_per_hop():
    from repro.sched.topology import Topology
    topo = Topology(uplink_bps=1e6, core_bps=2e6)
    topo.add_rack("r0")
    topo.add_rack("r1")
    topo.assign("a", "r0")
    topo.assign("b", "r0")
    topo.assign("c", "r1")
    net = Network(latency_s=0.001)
    net.set_topology(topo)
    for h in ("a", "b", "c", "ext"):
        net.add_host(h)
    assert net.hops("a", "a") == 0
    assert net.hops("a", "b") == 1  # same rack: one switch hop
    assert net.hops("a", "c") == 4  # + uplink, core, downlink
    assert net.hops("a", "ext") == 1  # endpoint outside the topology
    assert net.one_way_latency("a", "c") == pytest.approx(0.004)
    assert net.rtt("a", "b") == pytest.approx(0.002)
    assert net.rtt("a", "c") == pytest.approx(0.008)
    assert net.rtt("a", "a") == 0.0


def test_channel_completion_uses_per_hop_latency():
    from repro.sched.topology import Topology
    topo = Topology(uplink_bps=1e9)
    topo.add_rack("r0")
    topo.add_rack("r1")
    topo.assign("a", "r0")
    topo.assign("b", "r1")
    sim = Simulator()
    net = Network(default_bandwidth_bps=100.0, latency_s=0.5)
    net.set_topology(topo)
    net.add_host("a")
    net.add_host("b")
    eng = TickEngine(sim, dt=1.0)
    eng.add_arbiter(net)
    chan = StreamChannel(sim, net, "a", "b")
    eng.add_participant(chan)
    eng.start()
    fired = []
    chan.send(100.0, on_complete=lambda j: fired.append(sim.now))
    sim.run(until=5.0)
    # inter-rack, no core: 3 hops -> delivery at 1.0 + 3 * 0.5
    assert fired == [pytest.approx(2.5)]
