"""repro.fleet placement pipeline: each filter and weigher over a host
table, composition semantics, and filter-order independence."""

from dataclasses import replace
from itertools import permutations

import pytest

from repro.fleet import (
    AntiAffinityFilter,
    AvailabilityFilter,
    CongestionWeigher,
    HeadroomFilter,
    HeadroomWeigher,
    HealthFilter,
    PlacementPipeline,
    RackSpreadWeigher,
    VmSpec,
    WatermarkFilter,
)
from repro.fleet.hostview import HostState, HostTable
from repro.util import MiB


def state(name="h0", **kw):
    defaults = dict(rack="r0", usable_bytes=64 * MiB,
                    resident_bytes=16 * MiB, reserved_bytes=0.0,
                    health="UP", inflight=0, draining=False,
                    retired=False, vms=(), tenants={}, rack_load=0)
    defaults.update(kw)
    return HostState(name=name, **defaults)


def spec(name="vm0", tenant="t0", memory=8 * MiB, workload="kv"):
    return VmSpec(name=name, tenant=tenant, memory_bytes=memory,
                  workload=workload, arrival_s=0.0, lifetime_s=10.0)


def table(*states):
    """A host table of ``states``, named h0, h1, ... in the given order
    (so column positions follow the argument order)."""
    return HostTable.from_states(
        [replace(s, name=f"h{i}") for i, s in enumerate(states)])


def mask(f, *states, request=None):
    return f.mask(table(*states), request or spec()).tolist()


def weigh(w, *states, request=None):
    return w.weigh(table(*states), request or spec()).tolist()


# -- host-state derived quantities ----------------------------------------------

def test_host_state_headroom_charges_reservations():
    s = state(resident_bytes=16 * MiB, reserved_bytes=8 * MiB)
    assert s.free_bytes == 40 * MiB
    assert s.usage_fraction == pytest.approx(24 / 64)
    assert state(usable_bytes=0.0).usage_fraction == 1.0


def test_host_table_round_trips_rows_and_takes_placeable_hosts():
    rows = [state("h2", tenants={"t0": 2}, draining=True),
            state("h0", tenants={"t1": 1}, rack_load=4),
            state("h1", tenants={"t0": 1}, health="DOWN", inflight=3)]
    t = HostTable.from_states(rows)
    assert list(t) == ["h0", "h1", "h2"]
    assert t["h1"] == rows[2] and t["h2"] == rows[0]
    assert t["h0"] is t["h0"]                    # rows built once
    assert t.tenant_count("t0").tolist() == [0, 1, 2]
    assert t.tenant_count("t9").tolist() == [0, 0, 0]
    live = t.placeable()
    assert list(live) == ["h0", "h1"]
    assert live["h1"] == rows[2]
    assert live.tenant_count("t0").tolist() == [0, 1]
    assert live.placeable() is live


# -- filters over a table ------------------------------------------------------

def test_availability_filter():
    f = AvailabilityFilter()
    assert mask(f, state(), state(draining=True), state(retired=True)) \
        == [True, False, False]


def test_health_filter():
    f = HealthFilter(allowed=("UP",))
    states = (state(health="UP"), state(health="DOWN"),
              state(health="DEGRADED"))
    assert mask(f, *states) == [True, False, False]
    lax = HealthFilter(allowed=("UP", "DEGRADED"))
    assert mask(lax, *states) == [True, False, True]


def test_headroom_filter_counts_reservations():
    f = HeadroomFilter(min_headroom_bytes=4 * MiB)
    ok = state(resident_bytes=16 * MiB)          # free 48
    # in-flight reservations eat the same headroom
    busy = state(resident_bytes=16 * MiB, reserved_bytes=8 * MiB)
    assert mask(f, ok, busy, request=spec(memory=44 * MiB)) \
        == [True, False]                         # 48 - 44 == 4
    assert mask(f, ok, request=spec(memory=45 * MiB)) == [False]


def test_watermark_filter_projects_usage():
    f = WatermarkFilter(fraction=0.75)           # cap 48 MiB of 64
    s = state(resident_bytes=24 * MiB, reserved_bytes=8 * MiB)
    assert mask(f, s, state(usable_bytes=0.0),
                request=spec(memory=16 * MiB)) == [True, False]
    assert mask(f, s, request=spec(memory=17 * MiB)) == [False]
    with pytest.raises(ValueError):
        WatermarkFilter(fraction=0.0)


def test_anti_affinity_filter_caps_tenant_per_host():
    f = AntiAffinityFilter(max_per_host=2)
    # other tenants' VMs are invisible to the cap
    assert mask(f, state(tenants={"t0": 1}), state(tenants={"t0": 2}),
                state(tenants={"t1": 5}), request=spec(tenant="t0")) \
        == [True, False, True]
    # a tenant no host has seen is under the cap everywhere
    assert mask(f, state(tenants={"t0": 2}), request=spec(tenant="t9")) \
        == [True]
    with pytest.raises(ValueError):
        AntiAffinityFilter(max_per_host=0)


# -- weighers over a table ------------------------------------------------------

def test_headroom_weigher_normalizes_by_usable():
    w = HeadroomWeigher()
    s = state(resident_bytes=16 * MiB)           # free 48 of 64
    got = weigh(w, s, state(usable_bytes=0.0), request=spec(memory=16 * MiB))
    assert got == [pytest.approx(0.5), 0.0]


def test_rack_spread_and_congestion_weighers():
    assert weigh(RackSpreadWeigher(), state(rack_load=3)) == [-3.0]
    assert weigh(CongestionWeigher(), state(inflight=2)) == [-2.0]
    # the multiplier scales (and can invert) a preference
    assert RackSpreadWeigher(multiplier=-1.0).multiplier == -1.0


# -- composition ----------------------------------------------------------------

def _fleet_states():
    return [
        state("h0", resident_bytes=40 * MiB),                   # fullest
        state("h1", resident_bytes=16 * MiB, rack="r1"),
        state("h2", resident_bytes=16 * MiB, rack="r1"),        # tie w/ h1
        state("h3", resident_bytes=8 * MiB, health="DOWN"),     # best free
        state("h4", resident_bytes=8 * MiB, draining=True),
    ]


def _filters():
    return [AvailabilityFilter(), HealthFilter(),
            HeadroomFilter(2 * MiB), WatermarkFilter(0.9),
            AntiAffinityFilter(2)]


def test_pipeline_picks_best_survivor_with_lexicographic_ties():
    pipe = PlacementPipeline(_filters(), [HeadroomWeigher()])
    decision = pipe.select(HostTable.from_states(_fleet_states()), spec())
    # h3 (down) and h4 (draining) are filtered despite better headroom;
    # h1 and h2 tie on score and the name breaks the tie
    assert decision.host == "h1"
    assert decision.reason == "ok"
    assert decision.scores["h1"] == decision.scores["h2"]
    assert decision.rejected["health"] == 1
    assert decision.rejected["available"] == 1


def test_pipeline_no_valid_host_reports_reject_counts():
    pipe = PlacementPipeline(_filters(), [HeadroomWeigher()])
    decision = pipe.select(HostTable.from_states(_fleet_states()),
                           spec(memory=60 * MiB))
    assert decision.host is None
    assert decision.reason == "no-valid-host"
    # every live host failed headroom; dead/draining fail their own too
    assert decision.rejected["headroom"] >= 3


def test_pipeline_weighers_compose_additively():
    states = HostTable.from_states([
        state("h1", resident_bytes=16 * MiB, inflight=0),
        state("h2", resident_bytes=8 * MiB, inflight=2)])
    headroom_only = PlacementPipeline(_filters(), [HeadroomWeigher()])
    assert headroom_only.select(states, spec()).host == "h2"
    # a strong congestion penalty flips the decision
    congested = PlacementPipeline(
        _filters(), [HeadroomWeigher(), CongestionWeigher(1.0)])
    assert congested.select(states, spec()).host == "h1"


def test_filter_order_independence():
    """Filters are pure predicates over (host, spec): any ordering must
    produce the same decision AND the same per-filter reject counts."""
    states = HostTable.from_states(_fleet_states())
    request = spec(memory=24 * MiB)
    baseline = None
    for ordering in permutations(_filters()):
        pipe = PlacementPipeline(list(ordering),
                                 [HeadroomWeigher(),
                                  RackSpreadWeigher(0.01)])
        decision = pipe.select(states, request)
        key = (decision.host, decision.reason,
               dict(decision.rejected), dict(decision.scores))
        if baseline is None:
            baseline = key
        else:
            assert key == baseline
