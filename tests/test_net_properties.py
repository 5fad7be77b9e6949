"""Property-based tests for network arbitration invariants."""

import pytest
from hypothesis import given, settings, strategies as st

from repro.net import Network, maxmin_violations
from repro.net.certificate import ABS_TOL, REL_TOL
from tests.net_reference import reference_grants


@st.composite
def flow_specs(draw, demands=st.floats(min_value=0.0, max_value=1e6)):
    n_hosts = draw(st.integers(2, 5))
    n_flows = draw(st.integers(1, 12))
    flows = []
    for _ in range(n_flows):
        src = draw(st.integers(0, n_hosts - 1))
        dst = draw(st.integers(0, n_hosts - 1))
        demand = draw(demands)
        prio = draw(st.integers(0, 2))
        flows.append((src, dst, demand, prio))
    return n_hosts, flows


def build(n_hosts, specs, bw=1000.0):
    net = Network(default_bandwidth_bps=bw, latency_s=0.0)
    for i in range(n_hosts):
        net.add_host(f"h{i}")
    flows = []
    for src, dst, demand, prio in specs:
        f = net.open_flow(f"h{src}", f"h{dst}", priority=prio)
        f.demand = demand
        flows.append(f)
    return net, flows


@settings(max_examples=80, deadline=None)
@given(flow_specs())
def test_grants_never_exceed_demand_or_capacity(spec):
    n_hosts, specs = spec
    net, flows = build(n_hosts, specs)
    demands = [f.demand for f in flows]
    net.arbitrate(dt=1.0)
    for f, d in zip(flows, demands):
        assert f.granted <= d + 1e-6
    # per-link conservation
    usage = {}
    for f, d in zip(flows, specs):
        for link in f.links:
            usage[link] = usage.get(link, 0.0) + f.granted
    for link, used in usage.items():
        assert used <= link.capacity_bps + 1e-3


@settings(max_examples=80, deadline=None)
@given(flow_specs())
def test_work_conservation_on_single_link(spec):
    """If all flows share one bottleneck link, the link is either fully
    used or every demand is satisfied."""
    n_hosts, specs = spec
    # force all flows onto h0 -> h1
    specs = [(0, 1, d, p) for (_, _, d, p) in specs]
    net, flows = build(n_hosts, specs, bw=500.0)
    demands = [f.demand for f in flows]
    net.arbitrate(dt=1.0)
    total_granted = sum(f.granted for f in flows)
    total_demand = sum(demands)
    assert total_granted == pytest.approx(min(total_demand, 500.0),
                                          rel=1e-6, abs=1e-3)


@settings(max_examples=60, deadline=None)
@given(flow_specs())
def test_strict_priority_dominance(spec):
    """A priority-0 flow is never worse off than it would be with the
    lower classes absent entirely."""
    n_hosts, specs = spec
    net_all, flows_all = build(n_hosts, specs)
    net_all.arbitrate(dt=1.0)
    hi_grants = {i: f.granted for i, (f, s) in
                 enumerate(zip(flows_all, specs)) if s[3] == 0}

    only_hi = [(s if s[3] == 0 else (s[0], s[1], 0.0, s[3]))
               for s in specs]
    net_hi, flows_hi = build(n_hosts, only_hi)
    net_hi.arbitrate(dt=1.0)
    for i, grant in hi_grants.items():
        assert grant == pytest.approx(flows_hi[i].granted, rel=1e-6,
                                      abs=1e-6)


#: demands that often tie a link's fair share exactly (NIC speeds are
#: multiples of 25 B/s), mixed with arbitrary ones
TIE_PRONE = st.one_of(st.floats(min_value=0.0, max_value=1e6),
                      st.sampled_from([12.5, 25.0, 50.0, 100.0, 200.0]))


@settings(max_examples=150, deadline=None)
@given(flow_specs(demands=TIE_PRONE),
       st.lists(st.sampled_from([0.0, 0.25, 1.0]), min_size=5, max_size=5),
       st.one_of(st.sampled_from([0.5, 1.0, 2.0]),
                 st.floats(min_value=1e-3, max_value=10.0)))
def test_grants_satisfy_the_maxmin_certificate(spec, factors, dt):
    """On random flow sets, NIC speeds (some degraded or down) and tick
    lengths, the arbiter's grants pass the max-min bottleneck
    certificate and agree with the reference oracle."""
    n_hosts, specs = spec
    net = Network(latency_s=0.0)
    for i in range(n_hosts):
        nic = net.add_host(f"h{i}", bandwidth_bps=100.0 * (i + 1))
        nic.tx.degrade(factors[i])
        nic.rx.degrade(factors[-1 - i])
    flows = []
    for src, dst, demand, prio in specs:
        f = net.open_flow(f"h{src}", f"h{dst}", priority=prio)
        f.demand = demand
        flows.append(f)
    demands = [(f, f.demand) for f in flows]
    net.arbitrate(dt=dt)
    assert maxmin_violations(net, demands, dt) == []
    oracle = reference_grants(net, demands, dt)
    for f in flows:
        assert f.granted == pytest.approx(oracle.get(f, 0.0), rel=REL_TOL,
                                          abs=ABS_TOL)
