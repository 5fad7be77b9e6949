"""The max-min bottleneck certificate: the arbiter's contract, checked.

An allocation is max-min fair with demand caps and strict priority
classes (Bertsekas & Gallager, *Data Networks* §6.5) iff, for every
class *p*:

* no link carries more than its capacity × dt;
* every grant is at most its flow's demand;
* every under-served flow crosses a *bottleneck*: a link saturated by
  classes ≤ *p* on which no flow of class *p* gets more than it does.

Flows whose endpoints a partition separates must get nothing. The check
needs each flow's demand as declared before :meth:`Network.arbitrate`
consumed it, so callers snapshot ``(flow, flow.demand)`` pairs first.
Comparisons allow :data:`REL_TOL` relative plus :data:`ABS_TOL` bytes of
float slack — the same tolerance within which two arbiters' grants for
one tick are said to agree.
"""

from __future__ import annotations

from typing import Iterable

from repro.net.flow import Flow

__all__ = ["ABS_TOL", "REL_TOL", "maxmin_violations"]

#: relative float slack of every comparison
REL_TOL = 1e-9
#: absolute float slack of every comparison, in bytes
ABS_TOL = 1e-6


def maxmin_violations(net, demands: Iterable[tuple[Flow, float]],
                      dt: float) -> list[str]:
    """One tick's certificate violations on ``net`` (empty = certified).

    ``demands`` are the ``(flow, demand)`` pairs declared for the tick;
    pairs with no positive demand or a closed flow are ignored.
    """
    def slack(x: float) -> float:
        return REL_TOL * abs(x) + ABS_TOL

    problems: list[str] = []
    served: list[tuple[Flow, float]] = []
    for f, d in demands:
        if d <= 0 or not f.active:
            continue
        if not net.reachable(f.src, f.dst):
            if f.granted != 0.0:
                problems.append(f"{f.name}: granted {f.granted!r} across "
                                f"a partition")
            continue
        served.append((f, d))
        if not 0.0 <= f.granted <= d * (1.0 + REL_TOL):
            problems.append(f"{f.name}: granted {f.granted!r} outside "
                            f"[0, demand {d!r}]")

    #: per link: bytes granted per class, and the largest grant per class
    load: dict = {}
    top: dict = {}
    for f, _ in served:
        p, g = f.priority, f.granted
        for link in f.links:
            per = load.setdefault(link, {})
            per[p] = per.get(p, 0.0) + g
            if g > top.get((link, p), -1.0):
                top[link, p] = g
    for link, per in load.items():
        cap = link.capacity_per_tick(dt)
        carried = sum(per.values())
        if carried > cap + slack(cap):
            problems.append(f"{link.name}: carried {carried!r} > capacity "
                            f"{cap!r}")

    def bottleneck(link, p: int, g: float) -> bool:
        cap = link.capacity_per_tick(dt)
        upto = sum(v for q, v in load[link].items() if q <= p)
        return upto >= cap - slack(cap) and top[link, p] <= g + slack(g)

    for f, d in served:
        g = f.granted
        if g >= d - slack(d):
            continue
        if not any(bottleneck(link, f.priority, g) for link in f.links):
            problems.append(f"{f.name}: granted {g!r} < demand {d!r} "
                            f"with no bottleneck link")
    return problems
