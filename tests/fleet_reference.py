"""The per-row placement pipeline, kept as a test oracle.

:func:`reference_select` is the fleet's original
``PlacementPipeline.select``: every filter judges every
:class:`~repro.fleet.hostview.HostState` row one at a time, survivors
are scored by summing ``multiplier * weigh`` per row with the builtin
``sum``, and the best score wins with a lexicographic tie-break. The
filter and weigher bodies below are the original per-row ``passes`` and
``weigh`` methods of the six filters and four weighers in
:mod:`repro.fleet.pipeline`.

The tests compare the column pipeline's decision with it field by
field: host, reason, per-filter rejection counts and scores, bit for
bit.
"""

from __future__ import annotations

from repro.fleet.pipeline import (
    AntiAffinityFilter,
    AvailabilityFilter,
    CongestionWeigher,
    DomainSpreadWeigher,
    HeadroomFilter,
    HeadroomWeigher,
    HealthFilter,
    PlacementDecision,
    RackSpreadWeigher,
    WatermarkFilter,
)

__all__ = ["reference_passes", "reference_select", "reference_weigh"]


def _available(f, state, spec):
    return not state.draining and not state.retired


def _health(f, state, spec):
    return state.health in f.allowed


def _headroom(f, state, spec):
    return state.free_bytes - spec.memory_bytes >= f.min_headroom_bytes


def _watermark(f, state, spec):
    if state.usable_bytes <= 0:
        return False
    projected = (state.resident_bytes + state.reserved_bytes
                 + spec.memory_bytes)
    return projected <= f.fraction * state.usable_bytes


def _anti_affinity(f, state, spec):
    return state.tenants.get(spec.tenant, 0) < f.max_per_host


def _headroom_weight(w, state, spec):
    if state.usable_bytes <= 0:
        return 0.0
    return (state.free_bytes - spec.memory_bytes) / state.usable_bytes


def _rack_spread(w, state, spec):
    return -float(state.rack_load)


def _domain_spread(w, state, spec):
    k = w.tier_falloff
    score = -float(state.rack_load)
    if state.pod is not None:
        score = -float(state.pod_load) + k * score
    if state.az is not None:
        score = -float(state.az_load) + k * score
    return score


def _congestion(w, state, spec):
    return -float(state.inflight)


_PASSES = {
    AvailabilityFilter: _available,
    HealthFilter: _health,
    HeadroomFilter: _headroom,
    WatermarkFilter: _watermark,
    AntiAffinityFilter: _anti_affinity,
}

_WEIGH = {
    HeadroomWeigher: _headroom_weight,
    RackSpreadWeigher: _rack_spread,
    DomainSpreadWeigher: _domain_spread,
    CongestionWeigher: _congestion,
}


def reference_passes(f, state, spec) -> bool:
    """Filter ``f``'s per-row verdict on one host."""
    return _PASSES[type(f)](f, state, spec)


def reference_weigh(w, state, spec) -> float:
    """Weigher ``w``'s per-row score of one host."""
    return _WEIGH[type(w)](w, state, spec)


def reference_select(rows, filters, weighers, spec) -> PlacementDecision:
    """Pick a host for ``spec`` from the :class:`HostState` ``rows``.

    Not short-circuited: every filter judges every host, so rejection
    counts and the surviving set are the same for any filter order.
    """
    rejected = {f.name: 0 for f in filters}
    survivors = []
    for state in rows:
        ok = True
        for f in filters:
            if not reference_passes(f, state, spec):
                rejected[f.name] += 1
                ok = False
        if ok:
            survivors.append(state)
    if not survivors:
        return PlacementDecision(host=None, reason="no-valid-host",
                                 rejected=rejected)
    scores = {
        s.name: sum(w.multiplier * reference_weigh(w, s, spec)
                    for w in weighers)
        for s in survivors
    }
    # max score; ties broken by host name for determinism
    best = min(scores, key=lambda h: (-scores[h], h))
    return PlacementDecision(host=best, reason="ok",
                             rejected=rejected, scores=scores)
