"""Property tests: the column pipeline equals the per-row oracle.

Random host tables (hosts without usable memory, score ties, every
health state, draining and retired hosts, tenants no host has seen,
hosts outside any pod or AZ) under random filter stacks and weighers
(negative multipliers included) must give exactly the decision of
:func:`~tests.fleet_reference.reference_select`: the same host and
reason, the same rejection counts and bit-identical scores.
"""

from hypothesis import given, settings
from hypothesis import strategies as st

from repro.fleet import (
    AntiAffinityFilter,
    AvailabilityFilter,
    CongestionWeigher,
    DomainSpreadWeigher,
    HeadroomFilter,
    HeadroomWeigher,
    HealthFilter,
    HostState,
    HostTable,
    PlacementPipeline,
    RackSpreadWeigher,
    VmSpec,
    WatermarkFilter,
)
from repro.fleet.hostview import HEALTH_STATES
from repro.util import MiB
from tests.fleet_reference import reference_select

TENANTS = ("t0", "t1", "t2")
#: few distinct values, so hosts often tie on every input of a score
BYTES = st.sampled_from([0.0, 4 * MiB, 8 * MiB, 16 * MiB, 40 * MiB,
                         3.3 * MiB, 1e-3])
LOADS = st.integers(0, 4)


@st.composite
def host_rows(draw):
    n = draw(st.integers(0, 8))
    names = draw(st.permutations([f"h{i}" for i in range(n)]))
    rows = []
    for name in names:
        rows.append(HostState(
            name=name,
            rack=draw(st.sampled_from([None, "r0", "r1"])),
            usable_bytes=draw(st.sampled_from([0.0, 32 * MiB, 64 * MiB,
                                               48.5 * MiB])),
            resident_bytes=draw(BYTES),
            reserved_bytes=draw(BYTES),
            health=draw(st.sampled_from(HEALTH_STATES)),
            inflight=draw(st.integers(0, 3)),
            draining=draw(st.booleans()),
            retired=draw(st.booleans()),
            tenants=draw(st.dictionaries(st.sampled_from(TENANTS),
                                         st.integers(1, 3))),
            rack_load=draw(LOADS),
            pod=draw(st.sampled_from([None, "p0", "p1"])),
            az=draw(st.sampled_from([None, "z0"])),
            pod_load=draw(LOADS),
            az_load=draw(LOADS)))
    return rows


MULTIPLIERS = st.sampled_from([1.0, -1.0, 0.02, 0.1, -0.3, 0.0, 2.5])


@st.composite
def filter_stacks(draw):
    candidates = [
        AvailabilityFilter(),
        HealthFilter(allowed=tuple(draw(st.sets(
            st.sampled_from(HEALTH_STATES), min_size=1)))),
        HeadroomFilter(draw(st.sampled_from([0.0, 4 * MiB, 8 * MiB]))),
        WatermarkFilter(draw(st.sampled_from([0.5, 0.75, 0.9, 1.0]))),
        AntiAffinityFilter(draw(st.integers(1, 3))),
    ]
    chosen = draw(st.lists(st.sampled_from(candidates), max_size=6))
    return draw(st.permutations(chosen))


@st.composite
def weigher_lists(draw):
    makers = [
        lambda m: HeadroomWeigher(m),
        lambda m: RackSpreadWeigher(m),
        lambda m: CongestionWeigher(m),
        lambda m: DomainSpreadWeigher(
            m, tier_falloff=draw(st.sampled_from([0.125, 0.5, 1.0]))),
    ]
    picks = draw(st.lists(st.integers(0, len(makers) - 1), max_size=5))
    return [makers[i](draw(MULTIPLIERS)) for i in picks]


specs = st.builds(
    VmSpec, name=st.just("vm"),
    tenant=st.sampled_from(TENANTS + ("t9",)),       # t9: never seen
    memory_bytes=st.sampled_from([0, 4 * MiB, 8 * MiB, 16 * MiB,
                                  1024 * MiB]),
    workload=st.just("kv"), arrival_s=st.just(0.0),
    lifetime_s=st.just(1.0))


def decision_key(d):
    return d.host, d.reason, d.rejected, d.scores


@settings(max_examples=300, deadline=None)
@given(host_rows(), filter_stacks(), weigher_lists(), specs)
def test_column_select_equals_the_per_row_oracle(rows, filters, weighers,
                                                  spec):
    got = PlacementPipeline(filters, weighers).select(
        HostTable.from_states(rows), spec)
    want = reference_select(rows, filters, weighers, spec)
    assert decision_key(got) == decision_key(want)
    # bit for bit: repr also tells -0.0 from 0.0
    assert [repr(v) for v in got.scores.values()] \
        == [repr(want.scores[h]) for h in got.scores]


@settings(max_examples=100, deadline=None)
@given(host_rows(), filter_stacks(), weigher_lists(), specs)
def test_placeable_table_matches_the_oracle_over_placeable_rows(
        rows, filters, weighers, spec):
    table = HostTable.from_states(rows).placeable()
    live = [s for s in rows if not s.draining and not s.retired]
    assert sorted(table) == sorted(s.name for s in live)
    got = PlacementPipeline(filters, weighers).select(table, spec)
    want = reference_select(live, filters, weighers, spec)
    assert decision_key(got) == decision_key(want)


def test_all_hosts_rejected_counts_every_filter():
    rows = [HostState(name=f"h{i}", rack="r0", usable_bytes=64 * MiB,
                      resident_bytes=60 * MiB, reserved_bytes=0.0,
                      health=HEALTH_STATES[i % len(HEALTH_STATES)],
                      inflight=0, draining=False, retired=False)
            for i in range(4)]
    filters = [HealthFilter(), HeadroomFilter(), WatermarkFilter(0.9)]
    spec = VmSpec(name="vm", tenant="t9", memory_bytes=16 * MiB,
                  workload="kv", arrival_s=0.0, lifetime_s=1.0)
    got = PlacementPipeline(filters, [HeadroomWeigher()]).select(
        HostTable.from_states(rows), spec)
    assert decision_key(got) == decision_key(
        reference_select(rows, filters, [HeadroomWeigher()], spec))
    assert got.host is None and got.scores == {}
    assert got.rejected == {"health": 3, "headroom": 4, "watermark": 4}
