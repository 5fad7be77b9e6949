"""Filter/weigher placement, in the shape of Nova's FilterScheduler.

Placement is two honest stages over a :class:`~repro.fleet.hostview.HostTable`
(the hosts as columns). *Filters* are predicates — a host either can or
cannot take the VM — and each filter judges every host at once,
returning a boolean mask, so the surviving set (and the per-filter
rejection counts) is the pure intersection of the filters, independent
of the order they are listed in. *Weighers* rank the survivors: each
scores every host at once, scores are combined as a multiplier-weighted
sum, and the best host wins with a lexicographic tie-break so placement
is deterministic.

The pipeline itself is policy-free composition: scenarios build their
own stack (health, headroom-with-reservations, watermark,
anti-affinity, rack spread, congestion) and the
:class:`~repro.fleet.service.FleetScheduler` just calls
:meth:`PlacementPipeline.select`.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import TYPE_CHECKING, Optional

import numpy as np

from repro.fleet.hostview import HEALTH_STATES

if TYPE_CHECKING:  # pragma: no cover - typing only
    from repro.fleet.demand import VmSpec
    from repro.fleet.hostview import HostTable

__all__ = [
    "AntiAffinityFilter", "AvailabilityFilter", "CongestionWeigher",
    "DomainSpreadWeigher", "Filter", "HeadroomFilter", "HeadroomWeigher",
    "HealthFilter", "PlacementDecision", "PlacementPipeline",
    "RackSpreadWeigher", "WatermarkFilter", "Weigher",
]


class Filter:
    """A pass/fail predicate over every host of a table for one VM spec."""

    #: short identifier used in rejection counts and logs
    name = "filter"

    def mask(self, table: "HostTable", spec: "VmSpec") -> np.ndarray:
        """``bool[n]``: which hosts of ``table`` may take ``spec``."""
        raise NotImplementedError


class Weigher:
    """Scores every host of a table for one VM spec (higher = better).

    ``multiplier`` scales this weigher's contribution to the combined
    score (Nova's ``weight_multiplier`` knob); negative multipliers
    invert a preference.
    """

    name = "weigher"

    def __init__(self, multiplier: float = 1.0):
        self.multiplier = float(multiplier)

    def weigh(self, table: "HostTable", spec: "VmSpec") -> np.ndarray:
        """``float[n]``: this weigher's score of each host."""
        raise NotImplementedError


# -- concrete filters ---------------------------------------------------------
class AvailabilityFilter(Filter):
    """Rejects hosts that are draining or already retired."""

    name = "available"

    def mask(self, table, spec):
        return ~(table.draining | table.retired)


class HealthFilter(Filter):
    """Rejects hosts whose health state is not in the allowed set."""

    name = "health"

    def __init__(self, allowed: tuple = ("UP",)):
        self.allowed = frozenset(allowed)
        #: health code -> allowed
        self._allowed = np.array([s in self.allowed for s in HEALTH_STATES])

    def mask(self, table, spec):
        return self._allowed[table.health]


class HeadroomFilter(Filter):
    """Requires ``min_headroom_bytes`` of slack *after* the boot, with
    the planner's reservation ledger already charged — the satellite
    truth: a host about to receive two migrations has less room than
    its resident bytes suggest."""

    name = "headroom"

    def __init__(self, min_headroom_bytes: float = 0.0):
        self.min_headroom_bytes = float(min_headroom_bytes)

    def mask(self, table, spec):
        return table.free - spec.memory_bytes >= self.min_headroom_bytes


class WatermarkFilter(Filter):
    """Caps projected usage (resident + reserved + this boot) at a
    fraction of usable memory, keeping admission below the trigger's
    alert watermark instead of booting straight into a rebalance."""

    name = "watermark"

    def __init__(self, fraction: float = 0.9):
        if not 0.0 < fraction <= 1.0:
            raise ValueError(f"watermark fraction must be in (0, 1], "
                             f"got {fraction}")
        self.fraction = float(fraction)

    def mask(self, table, spec):
        projected = table.resident + table.reserved + spec.memory_bytes
        return (table.usable > 0) \
            & (projected <= self.fraction * table.usable)


class AntiAffinityFilter(Filter):
    """At most ``max_per_host`` VMs of the same tenant per host, so one
    host failure cannot take out a tenant's whole footprint."""

    name = "anti-affinity"

    def __init__(self, max_per_host: int = 2):
        if max_per_host < 1:
            raise ValueError("max_per_host must be >= 1")
        self.max_per_host = int(max_per_host)

    def mask(self, table, spec):
        return table.tenant_count(spec.tenant) < self.max_per_host


# -- concrete weighers --------------------------------------------------------
class HeadroomWeigher(Weigher):
    """Prefers the host with the most post-boot slack, normalized by
    usable memory so big and small hosts compete fairly (0 on hosts
    without usable memory)."""

    name = "headroom"

    def weigh(self, table, spec):
        usable = table.usable
        return np.divide(table.free - spec.memory_bytes, usable,
                         out=np.zeros(len(usable)), where=usable > 0)


class RackSpreadWeigher(Weigher):
    """Prefers emptier racks (fewer live VMs rack-wide), spreading the
    fleet across failure domains."""

    name = "rack-spread"

    def weigh(self, table, spec):
        return -table.rack_load.astype(float)


class DomainSpreadWeigher(Weigher):
    """Prefers hosts in the emptiest *nested* fault domains: AZ load
    dominates, then pod load, then rack load — so on a multi-tier
    topology the fleet spreads across the deepest distinct domain
    first (one AZ or pod event cannot take out a tenant's footprint),
    and on a flat topology it degrades to exactly the rack spread.

    ``tier_falloff`` discounts each inner tier: a rack imbalance only
    outweighs an AZ imbalance ``tier_falloff²`` times as large.
    """

    name = "domain-spread"

    def __init__(self, multiplier: float = 1.0,
                 tier_falloff: float = 0.125):
        super().__init__(multiplier)
        if not 0.0 < tier_falloff <= 1.0:
            raise ValueError(f"tier_falloff must be in (0, 1], "
                             f"got {tier_falloff}")
        self.tier_falloff = float(tier_falloff)

    def weigh(self, table, spec):
        k = self.tier_falloff
        score = -table.rack_load.astype(float)
        score = np.where(np.not_equal(table.pods, None),
                         -table.pod_load.astype(float) + k * score, score)
        return np.where(np.not_equal(table.azs, None),
                        -table.az_load.astype(float) + k * score, score)


class CongestionWeigher(Weigher):
    """Penalizes hosts already involved in migrations — a boot landing
    on a migration destination contends for the same uplinks."""

    name = "congestion"

    def weigh(self, table, spec):
        return -table.inflight.astype(float)


# -- the pipeline -------------------------------------------------------------
@dataclass
class PlacementDecision:
    """The outcome of one :meth:`PlacementPipeline.select` call."""

    #: chosen host, or None when no host passed every filter
    host: Optional[str]
    #: "ok", or "no-valid-host" on rejection
    reason: str
    #: hosts each filter rejected (every filter sees every host, so
    #: these counts are independent of filter order)
    rejected: dict = field(default_factory=dict)
    #: combined score per surviving host
    scores: dict = field(default_factory=dict)


class PlacementPipeline:
    """Composes filters and weighers into one placement decision."""

    def __init__(self, filters: list, weighers: list):
        self.filters = list(filters)
        self.weighers = list(weighers)

    def select(self, table: "HostTable", spec) -> PlacementDecision:
        """Pick a host for ``spec`` from the hosts of ``table``.

        Deliberately *not* short-circuited: every filter judges every
        host, so rejection counts and the surviving set are the same
        for any ordering of ``self.filters``.
        """
        n = len(table)
        rejected: dict[str, int] = {}
        ok = np.ones(n, dtype=bool)
        for f in self.filters:
            passed = f.mask(table, spec)
            rejected[f.name] = rejected.get(f.name, 0) \
                + n - int(np.count_nonzero(passed))
            ok &= passed
        survivors = np.flatnonzero(ok)
        if survivors.size == 0:
            return PlacementDecision(host=None, reason="no-valid-host",
                                     rejected=rejected)
        names = table.names[survivors].tolist()
        # each survivor's weighted terms go through the builtin sum in
        # list order, so its score is bit-identical to a per-row sum on
        # any interpreter (3.12's sum() is compensated)
        terms = [(w.multiplier * w.weigh(table, spec))[survivors].tolist()
                 for w in self.weighers]
        totals = list(map(sum, zip(*terms))) if terms else [0] * len(names)
        # max score; ties go to the first host in name order
        best = names[totals.index(max(totals))]
        return PlacementDecision(host=best, reason="ok", rejected=rejected,
                                 scores=dict(zip(names, totals)))
