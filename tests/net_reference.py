"""The reference arbiter, kept as a test oracle.

:func:`reference_grants` is the network's original per-tick algorithm:
a link→headroom dict, one scan over the declared demands, and
dict-based progressive filling per strict priority class. It is simple
and quadratic, so it lives here rather than in ``repro.net``: the tests
compare :meth:`repro.net.Network.arbitrate`'s grants with it to rel
1e-9, beside the max-min certificate
(:func:`repro.net.maxmin_violations`).

It is a pure function of the network's partitions and link capacities
and of the ``(flow, demand)`` snapshot taken before ``arbitrate``
consumed the demands: no flow, link or network state is touched.
"""

from __future__ import annotations

from typing import Iterable

from repro.net.flow import Flow
from repro.net.link import Link

__all__ = ["reference_grants"]

#: progressive-filling iterations that freeze no flow before the fill
#: gives up. Every other iteration retires at least one flow, so those
#: are bounded by the class size; only a stalled loop can hit this.
_MAX_STALLS = 10000


def reference_grants(net, demands: Iterable[tuple[Flow, float]],
                     dt: float) -> dict[Flow, float]:
    """One tick's max-min grants for ``demands`` on ``net``.

    Pairs with no positive demand or a closed flow get no entry; flows
    a partition cuts off get 0.0; an intra-host flow gets its demand.
    """
    grants: dict[Flow, float] = {}
    active: list[tuple[Flow, float]] = []
    for f, d in demands:
        if d <= 0 or not f.active:
            continue
        if not net.reachable(f.src, f.dst):
            grants[f] = 0.0
            continue
        active.append((f, d))
    remaining: dict[Link, float] = {}
    for f, _ in active:
        for link in f.links:
            remaining.setdefault(link, link.capacity_per_tick(dt))
    for prio in sorted({f.priority for f, _ in active}):
        _fill([(f, d) for f, d in active if f.priority == prio],
              remaining, grants)
    return grants


def _fill(batch: list[tuple[Flow, float]], remaining: dict[Link, float],
          grants: dict[Flow, float]) -> None:
    """Progressive filling of one priority class (rates in bytes/tick)."""
    demand: dict[Flow, float] = {}
    unfrozen: list[Flow] = []
    for f, d in batch:
        if not f.links:
            grants[f] = d  # intra-host: unconstrained
            continue
        grants[f] = 0.0
        demand[f] = d
        unfrozen.append(f)

    stalls = 0
    while unfrozen:
        # Count unfrozen flows per link.
        counts: dict[Link, int] = {}
        for f in unfrozen:
            for link in f.links:
                counts[link] = counts.get(link, 0) + 1
        # The smallest feasible uniform increment.
        delta = min(
            min(remaining[l] / n for l, n in counts.items()),
            min(demand[f] - grants[f] for f in unfrozen),
        )
        delta = max(delta, 0.0)
        for f in unfrozen:
            grants[f] += delta
            for link in f.links:
                remaining[link] -= delta
        # Freeze demand-satisfied flows and flows on exhausted links.
        eps = 1e-9
        still = []
        for f in unfrozen:
            if grants[f] >= demand[f] - eps:
                grants[f] = min(grants[f], demand[f])
                continue
            if any(remaining[l] <= eps for l in f.links):
                continue
            still.append(f)
        if len(still) == len(unfrozen):
            if delta <= eps:
                break  # nothing can advance (all links exhausted)
            stalls += 1
            if stalls > _MAX_STALLS:
                raise RuntimeError("progressive filling failed to converge")
        unfrozen = still
