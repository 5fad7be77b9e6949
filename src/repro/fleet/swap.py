"""Rebalancing strategies: greedy shedding vs destination swaps.

A churning fleet drifts out of balance — departures leave holes,
bursts pile boots onto whichever hosts had headroom that second. The
:class:`SwapRebalancer` periodically walks hosts above a high
watermark and sheds load, with two selectable strategies:

* ``greedy`` — the classic largest-first baseline: move the biggest
  resident VM to the freest host, repeat until below target. Simple,
  but it pays the biggest VMs' bytes every time and stalls when no
  destination can take them whole.
* ``swap`` — destination-swap rebalancing after Avin et al.: shed the
  *cheapest adequate* VM (the smallest one that covers the excess),
  and when no destination can admit it, trade places with a smaller
  VM on an otherwise-full destination — each half of the pair is
  admitted via :meth:`~repro.sched.planner.MigrationPlanner.direct`
  with ``credit_bytes`` for the bytes its counterpart frees. Swaps
  unlock destinations greedy gives up on, while cheapest-adequate
  selection moves strictly fewer bytes per shed; intra-tenant partners
  are preferred so a swap tends to stay within one tenant's footprint.

Both strategies admit through the planner, so rebalancing respects the
same concurrency caps, health gates, and reservation ledger as
watermark-triggered migrations and boots. A swap makes each host both
a source and a destination at once — configure the planner with
``max_per_host >= 2`` when enabling the swap strategy.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import TYPE_CHECKING, Optional

from repro.sim.periodic import PeriodicTask
from repro.vm.vm import VmState

if TYPE_CHECKING:  # pragma: no cover - typing only
    from repro.cluster.world import World
    from repro.fleet.hostview import FleetHostView, HostState
    from repro.sched.planner import MigrationPlanner

__all__ = ["RebalanceConfig", "SwapRebalancer"]

STRATEGIES = ("greedy", "swap")


@dataclass(frozen=True)
class RebalanceConfig:
    """When to rebalance and how hard to push."""

    strategy: str = "swap"
    #: how often the rebalancer scans the cluster
    interval_s: float = 2.0
    #: hosts above this projected-usage fraction shed load
    high_watermark: float = 0.85
    #: shedding stops once projected usage reaches this fraction
    target_watermark: float = 0.75
    #: migration admissions per round (swaps count both halves)
    max_moves_per_round: int = 4

    def __post_init__(self):
        if self.strategy not in STRATEGIES:
            raise ValueError(f"unknown strategy: {self.strategy!r} "
                             f"(one of {STRATEGIES})")
        if self.interval_s <= 0:
            raise ValueError("interval_s must be positive")
        if not 0.0 < self.target_watermark < self.high_watermark <= 1.0:
            raise ValueError("need 0 < target < high <= 1")
        if self.max_moves_per_round < 1:
            raise ValueError("max_moves_per_round must be >= 1")


class SwapRebalancer:
    """Periodic load shedding over a :class:`FleetHostView` snapshot."""

    def __init__(self, world: "World", planner: "MigrationPlanner",
                 view: "FleetHostView",
                 config: Optional[RebalanceConfig] = None):
        self.world = world
        self.planner = planner
        self.view = view
        self.config = config or RebalanceConfig()
        self.tracer = world.tracer
        self.log: list[str] = []
        self.counters = {"rounds": 0, "moves": 0, "swaps": 0,
                         "overloaded_seen": 0}
        self._task: Optional[PeriodicTask] = None

    def start(self) -> None:
        """Begin periodic rounds (idempotent)."""
        if self._task is None:
            self._task = PeriodicTask(self.world.sim,
                                      self.config.interval_s, self._round)

    def stop(self) -> None:
        if self._task is not None:
            self._task.cancel()
            self._task = None

    # -- one round ------------------------------------------------------------
    def _round(self, now: float) -> None:
        cfg = self.config
        states = self.view.refresh()
        overloaded = sorted(
            (s for s in states.values()
             if not s.draining and not s.retired
             and s.usage_fraction > cfg.high_watermark),
            key=lambda s: (-s.usage_fraction, s.name))
        self.counters["rounds"] += 1
        self.counters["overloaded_seen"] += len(overloaded)
        if not overloaded:
            return
        moves = 0
        for state in overloaded:
            if moves >= cfg.max_moves_per_round:
                break
            if cfg.strategy == "greedy":
                moves += self._shed_greedy(state, states,
                                           cfg.max_moves_per_round - moves)
            else:
                moves += self._shed_swap(state, states,
                                         cfg.max_moves_per_round - moves)
        if self.tracer.enabled:
            self.tracer.instant(
                "fleet", "rebalance", cat="fleet",
                args={"strategy": cfg.strategy,
                      "overloaded": [s.name for s in overloaded],
                      "moves": moves})

    # -- shared helpers -------------------------------------------------------
    def _excess_bytes(self, state: "HostState") -> float:
        """Bytes above the *target* watermark (what a shed must cover)."""
        return (state.resident_bytes + state.reserved_bytes
                - self.config.target_watermark * state.usable_bytes)

    def _movable_vms(self, host: str) -> list[tuple[str, float]]:
        """``(vm, resident_bytes)`` for VMs the planner may move now,
        name-sorted for determinism."""
        h = self.world.hosts[host]
        out = []
        for name in sorted(h.vms):
            vm = h.vms[name]
            if vm.state is VmState.TERMINATED or vm.migrating:
                continue
            if name in self.planner.active \
                    or self.planner.in_move_cooldown(name):
                continue
            size = h.memory.binding(name).pages.resident_bytes()
            if size > 0:
                out.append((name, float(size)))
        return out

    def _destinations(self, states: dict, exclude: str) -> list["HostState"]:
        """Candidate destinations, freest first (ties by name)."""
        return sorted(
            (s for s in states.values()
             if s.name != exclude and not s.draining and not s.retired
             and s.health == "UP"),
            key=lambda s: (-s.free_bytes, s.name))

    def _record_move(self, plan, kind: str) -> None:
        self.counters["moves"] += 1
        self.log.append(f"{kind} {plan.vm}: {plan.src}->{plan.dst} "
                        f"@{self.world.now:g}s")

    # -- greedy: largest-first direct moves -----------------------------------
    def _shed_greedy(self, state: "HostState", states: dict,
                     budget: int) -> int:
        excess = self._excess_bytes(state)
        if excess <= 0:
            return 0
        moves = 0
        for name, size in sorted(self._movable_vms(state.name),
                                 key=lambda t: (-t[1], t[0])):
            if excess <= 0 or moves >= budget:
                break
            for dst in self._destinations(states, exclude=state.name):
                plan = self.planner.direct(name, state.name, dst.name)
                if plan is not None:
                    self._record_move(plan, "move")
                    excess -= size
                    moves += 1
                    break
        return moves

    # -- swap-aware: cheapest-adequate moves + destination swaps --------------
    def _pick_cheapest_adequate(self, movable: list,
                                excess: float) -> Optional[tuple]:
        """The smallest VM that covers the excess alone; when none is
        big enough, the largest one (chip away)."""
        if not movable:
            return None
        adequate = [t for t in movable if t[1] >= excess]
        if adequate:
            return min(adequate, key=lambda t: (t[1], t[0]))
        return max(movable, key=lambda t: (t[1], t[0]))

    def _shed_swap(self, state: "HostState", states: dict,
                   budget: int) -> int:
        excess = self._excess_bytes(state)
        if excess <= 0:
            return 0
        moves = 0
        moved_vms: set = set()
        while excess > 0 and moves < budget:
            movable = [t for t in self._movable_vms(state.name)
                       if t[0] not in moved_vms]
            pick = self._pick_cheapest_adequate(movable, excess)
            if pick is None:
                break
            name, size = pick
            moved_vms.add(name)
            plan = None
            for dst in self._destinations(states, exclude=state.name):
                plan = self.planner.direct(name, state.name, dst.name)
                if plan is not None:
                    self._record_move(plan, "move")
                    excess -= size
                    moves += 1
                    break
            if plan is not None:
                continue
            # no destination can take it whole: trade places with a
            # smaller VM on the fullest-but-viable destination
            n = self._try_swap(state, states, name, size)
            if n:
                excess -= size  # partner arrives, but the big VM left
                moves += n
        return moves

    def _try_swap(self, state: "HostState", states: dict,
                  name: str, size: float) -> int:
        """Destination swap: ``name`` (size ``size``) trades places with
        a smaller VM on another host. Returns admitted plan count
        (2 = full swap, 1 = the outbound half only, 0 = nothing)."""
        tenant = self.view.tenant_of(name)
        for dst in self._destinations(states, exclude=state.name):
            partners = [(p, psize)
                        for p, psize in self._movable_vms(dst.name)
                        if psize < size]
            # prefer intra-tenant partners, then smallest first
            partners.sort(key=lambda t: (
                self.view.tenant_of(t[0]) != tenant, t[1], t[0]))
            for partner, psize in partners:
                # outbound half first: if the return half fails, the
                # overloaded host still shed its VM (a plain move)
                plan_out = self.planner.direct(
                    name, state.name, dst.name, credit_bytes=psize)
                if plan_out is None:
                    break  # this destination cannot admit even w/credit
                self._record_move(plan_out, "swap-out")
                plan_back = self.planner.direct(
                    partner, dst.name, state.name, credit_bytes=size)
                if plan_back is None:
                    return 1
                self._record_move(plan_back, "swap-back")
                self.counters["swaps"] += 1
                if self.tracer.enabled:
                    self.tracer.instant(
                        "fleet", "swap", cat="fleet",
                        args={"vm": name, "partner": partner,
                              "host": state.name, "dst": dst.name,
                              "vm_bytes": size, "partner_bytes": psize})
                return 2
        return 0
