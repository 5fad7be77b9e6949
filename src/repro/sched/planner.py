"""Cluster-wide migration planning: destination scoring and admission.

The paper's §III-B loop stops at a single host pair: the watermark
trigger fires and a migration is launched to *the* destination. This
planner generalizes it to a cluster — watermark alerts from every host
land in one FIFO queue, and each queued request is matched to the best
destination by a deterministic score:

* **headroom** — free memory at the destination relative to what the VM
  needs (its reservation at the source), so migrations relieve pressure
  instead of moving it;
* **rack locality vs fault-domain anti-affinity** — a same-rack move
  avoids the ToR uplink (cheaper, faster); a cross-rack move leaves the
  failing host's fault domain (survives a rack crash). Two fixed
  bonuses express the trade-off, and spreading wins;
* **congestion** — destinations already receiving migrations, and rack
  uplinks already carrying them, are penalized and capped;
* **health** — DOWN / RECENTLY_FAILED hosts are never chosen, DEGRADED
  hosts are scored down (see :class:`~repro.sched.health.HostHealthTracker`).

Admission limits (per-host and per-uplink concurrent migrations) bound
the thundering herd when many hosts alert at once; requests that cannot
be admitted stay queued in FIFO order and are re-examined whenever a
migration completes or a host's health changes.

Churn control (the rebalance ping-pong fix) adds four mechanisms on
top of the score:

* **in-flight demand reservation** — every active plan charges its
  ``demand_bytes`` against its destination's free memory, so concurrent
  plans in one pump cannot collectively overcommit a host below
  ``min_headroom_bytes``;
* **post-migration watermark projection** — a destination whose
  projected usage (current + reserved + the incoming VM's demand) would
  itself cross ``project_watermark`` is rejected, closing the
  shed-chain loop where the migration that relieved pressure creates
  the next alert;
* **hysteresis** — a per-VM ``move_cooldown_s`` refuses to re-shed a
  VM that just landed, and a ``min_gain`` margin refuses moves whose
  destination is not decisively better than staying put (Avin et al.'s
  destination-swap amortization);
* **pressure forecast** — an EWMA level + rate estimate per host, fed
  from the world's usage feed (:meth:`~repro.cluster.world.World.
  start_usage_feed`), replaces the instantaneous sample in the
  headroom/projection terms so a host that is *filling* is scored by
  where it is heading, not where it momentarily is.

Everything is deterministic: ties break lexicographically, the queue is
strictly ordered, and the decision log (:attr:`MigrationPlanner.log`)
of two same-seed runs is identical.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import TYPE_CHECKING, Callable, Optional

from repro.sched.health import HostHealthTracker
from repro.sched.topology import Topology

if TYPE_CHECKING:  # pragma: no cover - typing only
    from repro.cluster.world import World

__all__ = ["MigrationPlan", "MigrationPlanner", "PlannerConfig"]

#: score bonus for staying inside the source's rack (no uplink crossing)
_LOCALITY_BONUS = 0.2
#: score bonus per tier of fault-domain separation from the source (×1
#: cross-rack, ×2 cross-pod, ×3 cross-AZ; flat topologies are ×1)
_SPREAD_BONUS = 0.5
#: score multiplier for a DEGRADED destination
_DEGRADED_PENALTY = 0.5
#: how far ahead the usage forecast extrapolates the trend (seconds)
_FORECAST_HORIZON_S = 5.0


@dataclass(frozen=True)
class PlannerConfig:
    """Scoring weights, admission limits, and churn control."""

    #: concurrent migrations a host may participate in (source or dest)
    max_per_host: int = 1
    #: concurrent inter-rack migrations per rack uplink direction
    max_per_uplink: int = 2
    #: penalty per migration already in flight toward the destination's
    #: rack downlink (congestion avoidance)
    congestion_weight: float = 0.25
    #: hard floor on destination free memory after admission (bytes)
    min_headroom_bytes: float = 0.0
    #: charge every active plan's demand against its destination's free
    #: memory (off = the pre-reservation planner, the ablation baseline)
    reserve_in_flight: bool = True
    #: reject destinations whose projected usage (current + reserved +
    #: incoming demand) would cross this fraction of usable memory —
    #: set it to the scenario's high watermark; None disables
    project_watermark: Optional[float] = None
    #: refuse to re-shed a VM within this window of its last landing
    move_cooldown_s: float = 0.0
    #: minimum score improvement over staying at the source before a
    #: move is worth its migration cost
    min_gain: float = 0.0
    #: EWMA smoothing weight for the per-host usage forecast (0 = use
    #: the instantaneous sample; requires the world's usage feed)
    forecast_alpha: float = 0.0

    def __post_init__(self):
        if self.max_per_host < 1 or self.max_per_uplink < 1:
            raise ValueError("admission limits must be at least 1")
        if self.project_watermark is not None \
                and not 0.0 < self.project_watermark <= 1.5:
            raise ValueError("project_watermark must be in (0, 1.5]")
        if self.move_cooldown_s < 0 or self.min_gain < 0:
            raise ValueError("hysteresis knobs must be non-negative")
        if not 0.0 <= self.forecast_alpha <= 1.0:
            raise ValueError("forecast_alpha must be in [0, 1]")


@dataclass
class MigrationPlan:
    """One planned migration: who moves where, and why."""

    seq: int
    vm: str
    src: str
    dst: str
    score: float
    #: bytes the plan expects to need at the destination
    demand_bytes: float
    #: planning time (simulation seconds)
    at: float
    #: times this plan was re-pointed at a new destination
    replans: int = 0
    #: destinations already tried and abandoned (cumulative across
    #: replans, so a third attempt cannot bounce back to the first)
    tried: tuple = ()
    #: destination free bytes minus in-flight reservations minus this
    #: plan's demand, at admission time (the overcommit audit trail;
    #: recorded even when ``reserve_in_flight`` is off)
    headroom_bytes: float = 0.0
    #: completion time (simulation seconds), set by ``on_plan_done``
    done_at: Optional[float] = None

    def describe(self) -> str:
        return (f"plan#{self.seq} {self.vm}: {self.src}->{self.dst} "
                f"score={self.score:.3f} @{self.at:g}s")


@dataclass
class _Request:
    seq: int
    vm: str
    src: str


class _HostForecast:
    """EWMA level + rate of one host's resident bytes."""

    __slots__ = ("level", "rate", "t", "v")

    def __init__(self, t: float, v: float):
        self.level = v
        self.rate = 0.0
        self.t = t
        self.v = v

    def update(self, alpha: float, t: float, v: float) -> None:
        dt = t - self.t
        if dt > 0:
            self.rate = alpha * ((v - self.v) / dt) \
                + (1.0 - alpha) * self.rate
        self.level = alpha * v + (1.0 - alpha) * self.level
        self.t = t
        self.v = v

    def projected(self, horizon_s: float) -> float:
        return self.level + self.rate * horizon_s


class MigrationPlanner:
    """Cluster-wide destination selection with admission control.

    ``dispatch`` is the control plane's launcher: it receives a
    :class:`MigrationPlan` and must start the migration (typically via a
    :class:`~repro.faults.MigrationSupervisor`), calling
    :meth:`on_plan_done` when the final attempt ends. Destinations are
    drawn from ``world.hosts`` (machines with a memory manager); hosts
    can be excluded with ``exclude_hosts`` (e.g. VMD-donor-only hosts).
    """

    def __init__(self, world: "World",
                 topology: Optional[Topology] = None,
                 health: Optional[HostHealthTracker] = None,
                 config: Optional[PlannerConfig] = None,
                 dispatch: Optional[Callable[[MigrationPlan], None]] = None,
                 exclude_hosts: tuple = ()):
        self.world = world
        self.topology = topology if topology is not None else world.topology
        self.health = health
        self.config = config or PlannerConfig()
        self.dispatch = dispatch
        self.exclude_hosts = set(exclude_hosts)
        self.queue: list[_Request] = []
        #: in-flight plans by VM name
        self.active: dict[str, MigrationPlan] = {}
        #: completed/failed plans in completion order
        self.completed: list[tuple[MigrationPlan, str]] = []
        #: every decision, in order — the determinism witness
        self.log: list[str] = []
        #: deferral counts by reason (no-destination, source-at-capacity,
        #: insufficient-gain, move-cooldown) — cheap observability that
        #: works without a tracer
        self.deferrals: dict[str, int] = {}
        self._seq = 0
        #: per-host in-flight migration counts, maintained incrementally
        #: alongside ``active`` so admission checks are O(1) instead of
        #: scanning every in-flight plan per candidate host
        self._inflight: dict[str, int] = {}
        #: bytes reserved at each destination by active plans
        self._reserved: dict[str, float] = {}
        #: bytes reserved by admitted-but-not-yet-placed boots
        #: (:meth:`reserve_boot`); shares one headroom truth with the
        #: migration ledger via :meth:`reserved_on`
        self._boot_reserved: dict[str, float] = {}
        #: vm name -> sim time its last plan completed (move cooldown)
        self._landed_at: dict[str, float] = {}
        #: per-host EWMA pressure forecast, fed by ``observe_usage``
        self._forecast: dict[str, _HostForecast] = {}
        #: sorted candidate host names, keyed on the exact host-name set
        #: (an equal-size remove+add must invalidate, not just growth)
        self._hosts_sorted: list[str] = []
        self._hosts_key: frozenset = frozenset()
        #: re-entrancy guard: a dispatch that completes synchronously
        #: re-enters pump() via on_plan_done; the inner call only flags
        #: a re-pump so the outer loop never double-dispatches from a
        #: stale queue snapshot
        self._pumping = False
        self._repump = False
        if health is not None:
            health.subscribe(self._on_health_change)

    @property
    def tracer(self):
        """The world's trace sink (read at event time: a tracer attached
        after planner construction is still honored)."""
        return self.world.tracer

    @property
    def metrics(self):
        """The world's live-metrics sink (same read-at-use contract)."""
        return self.world.metrics

    # -- intake --------------------------------------------------------------
    def request(self, vm_name: str, src_host: str,
                ignore_cooldown: bool = False) -> bool:
        """Queue a migration request from a watermark alert.

        Returns True when the request was queued or dispatched. Returns
        False when this call did *not* take responsibility for the VM —
        a duplicate of a queued/in-flight request, or a VM still inside
        its move cooldown — so the alerting trigger stays armed and the
        crossing re-fires instead of stranding the host.

        ``ignore_cooldown`` bypasses the per-VM move cooldown: an
        evacuation (decommission-drain) must move a just-landed VM
        anyway, because its host is going away.
        """
        if vm_name in self.active or \
                any(r.vm == vm_name for r in self.queue):
            return False
        if not ignore_cooldown and self.in_move_cooldown(vm_name):
            landed = self._landed_at[vm_name]
            self._defer(None, vm_name, "move-cooldown",
                        until=landed + self.config.move_cooldown_s)
            return False
        self._seq += 1
        req = _Request(self._seq, vm_name, src_host)
        self.queue.append(req)
        self.log.append(f"request#{req.seq} {vm_name} from {src_host} "
                        f"@{self.world.now:g}s")
        if self.tracer.enabled:
            self.tracer.instant(
                "planner", "request", cat="planner",
                args={"seq": req.seq, "vm": vm_name, "src": src_host})
        self.pump()
        return True

    def cancel(self, vm_name: str) -> bool:
        """Drop any queued (not yet admitted) request for ``vm_name``.

        Fleet departures call this: a VM that left the cluster must not
        be admitted off a stale watermark alert. Active plans are not
        touched — the supervisor owns in-flight migrations. Returns
        True when a queued request was removed."""
        removed = False
        for req in list(self.queue):
            if req.vm == vm_name:
                self.queue.remove(req)
                removed = True
                self.log.append(f"cancel#{req.seq} {vm_name} "
                                f"@{self.world.now:g}s")
                if self.tracer.enabled:
                    self.tracer.instant(
                        "planner", "cancel", cat="planner",
                        args={"seq": req.seq, "vm": vm_name})
        return removed

    # -- bookkeeping ---------------------------------------------------------
    def _candidates(self) -> list[str]:
        """Sorted host names, cached on the host-name *set* (not its
        length: an equal-size remove+add would serve a stale list and
        KeyError in scoring)."""
        key = frozenset(self.world.hosts)
        if key != self._hosts_key:
            self._hosts_key = key
            self._hosts_sorted = sorted(key)
        return self._hosts_sorted

    def _add_active(self, plan: MigrationPlan) -> None:
        self.active[plan.vm] = plan
        for host in (plan.src, plan.dst):
            self._inflight[host] = self._inflight.get(host, 0) + 1
        self._reserved[plan.dst] = \
            self._reserved.get(plan.dst, 0.0) + plan.demand_bytes

    def _remove_active(self, vm: str) -> Optional[MigrationPlan]:
        plan = self.active.pop(vm, None)
        if plan is not None:
            for host in (plan.src, plan.dst):
                n = self._inflight.get(host, 0) - 1
                if n > 0:
                    self._inflight[host] = n
                else:
                    self._inflight.pop(host, None)
            left = self._reserved.get(plan.dst, 0.0) - plan.demand_bytes
            if left > 0 and self._inflight.get(plan.dst, 0) > 0:
                self._reserved[plan.dst] = left
            else:
                self._reserved.pop(plan.dst, None)
        return plan

    def _inflight_on(self, host: str) -> int:
        return self._inflight.get(host, 0)

    def reserved_on(self, host: str) -> float:
        """Bytes in-flight work will claim at ``host`` when it lands:
        active migration plans *plus* admitted boots still inside their
        boot delay. Every admission path (migration scoring, directed
        moves, fleet boot placement) charges against this one number."""
        return self._reserved.get(host, 0.0) \
            + self._boot_reserved.get(host, 0.0)

    def migration_claims(self) -> dict[str, float]:
        """Bytes active plans reserve, by destination host (hosts with
        no claim are absent)."""
        return dict(self._reserved)

    def boot_claims(self) -> dict[str, float]:
        """Bytes admitted boots reserve, by target host (hosts with no
        claim are absent)."""
        return dict(self._boot_reserved)

    def inflight_counts(self) -> dict[str, int]:
        """Active migrations per host, as source or destination (hosts
        with none are absent)."""
        return dict(self._inflight)

    # -- boot reservations ----------------------------------------------------
    def reserve_boot(self, host: str, demand_bytes: float) -> None:
        """Charge an admitted boot against ``host`` until it is placed.

        A boot decision is not a memory registration: between the
        placement choice and the VM's actual ``place_vm`` (a boot delay,
        an image fetch), the host's ``free_bytes()`` still shows the old
        headroom. Without this charge a planner pump in that window can
        reserve migrations into the same bytes and overcommit the host.
        Call :meth:`release_boot` when the VM lands (or the boot is
        abandoned).
        """
        if demand_bytes <= 0:
            return
        self._boot_reserved[host] = \
            self._boot_reserved.get(host, 0.0) + demand_bytes

    def release_boot(self, host: str, demand_bytes: float) -> None:
        """Release a boot reservation taken by :meth:`reserve_boot`."""
        left = self._boot_reserved.get(host, 0.0) - demand_bytes
        if left > 1e-9:
            self._boot_reserved[host] = left
        else:
            self._boot_reserved.pop(host, None)

    def in_move_cooldown(self, vm_name: str) -> bool:
        """True while ``vm_name`` is inside its post-landing move
        cooldown (rebalancers consult this before proposing a move)."""
        cooldown = self.config.move_cooldown_s
        if cooldown <= 0:
            return False
        landed = self._landed_at.get(vm_name)
        return landed is not None and self.world.now - landed < cooldown

    def _inflight_crossing(self, src: str, dst: str) -> int:
        """Inter-rack migrations sharing either uplink of this path."""
        topo = self.topology
        if topo is None or topo.same_rack(src, dst):
            return 0
        rs, rd = topo.rack_of(src), topo.rack_of(dst)
        n = 0
        for p in self.active.values():
            prs, prd = topo.rack_of(p.src), topo.rack_of(p.dst)
            if prs == prd:
                continue
            if prs == rs or prd == rd:
                n += 1
        return n

    def _demand_of(self, vm_name: str, src: str) -> float:
        """Bytes the VM will want at the destination (its reservation)."""
        host = self.world.hosts.get(src)
        if host is not None and host.memory.has_vm(vm_name):
            return host.memory.binding(vm_name).cgroup.reservation_bytes
        vm = self.world.vms.get(vm_name)
        return vm.memory_bytes if vm is not None else 0.0

    # -- pressure forecast ----------------------------------------------------
    def observe_usage(self, host: str, t: float, used_bytes: float) -> None:
        """Feed one usage sample (wired to the world's usage feed)."""
        alpha = self.config.forecast_alpha
        if alpha <= 0:
            return
        fc = self._forecast.get(host)
        if fc is None:
            self._forecast[host] = _HostForecast(t, used_bytes)
        else:
            if self.metrics.enabled:
                # how far the last projection missed this sample
                predicted = fc.projected(t - fc.t)
                self.metrics.gauge(
                    f"planner.forecast_error.{host}").set(
                        abs(predicted - used_bytes))
            fc.update(alpha, t, used_bytes)

    def _usage_estimate(self, host_name: str, mem) -> float:
        """Near-future resident bytes: the EWMA forecast when enabled,
        never below the instantaneous sample (a host that is filling is
        scored by where it is heading; a transient dip is not trusted)."""
        inst = mem.total_resident_bytes()
        if self.config.forecast_alpha <= 0:
            return inst
        fc = self._forecast.get(host_name)
        if fc is None:
            return inst
        return max(inst, fc.projected(_FORECAST_HORIZON_S))

    # -- scoring -------------------------------------------------------------
    def score_destination(self, vm_name: str, src: str, dst: str,
                          demand: Optional[float] = None) -> Optional[float]:
        """Deterministic destination score; None = ineligible.

        ``demand`` is the VM's memory demand if the caller already knows
        it — the admission loops compute it once per request instead of
        once per candidate host.
        """
        cfg = self.config
        if dst == src or dst in self.exclude_hosts:
            return None
        if self.health is not None and not self.health.placeable(dst):
            return None
        host = self.world.hosts[dst]
        mem = host.memory
        usable = mem.usable_bytes()
        if usable <= 0:
            return None
        if demand is None:
            demand = self._demand_of(vm_name, src)
        reserved = self.reserved_on(dst) if cfg.reserve_in_flight else 0.0
        # Hard admission floor on *instantaneous* free memory, after
        # charging every in-flight plan already headed here.
        if mem.free_bytes() - reserved - demand < cfg.min_headroom_bytes:
            return None
        used_est = self._usage_estimate(dst, mem)
        if cfg.project_watermark is not None and \
                used_est + reserved + demand \
                > cfg.project_watermark * usable:
            return None  # the landing itself would cross the watermark
        free_est = usable - used_est - reserved
        score = max(0.0, free_est) / usable
        topo = self.topology
        if topo is not None and topo.rack_of(src) is not None \
                and topo.rack_of(dst) is not None:
            # Anti-affinity scales with the deepest domain left behind:
            # staying in-rack earns the locality bonus; crossing racks /
            # pods / AZs earns the spread bonus × tier distance (1 on flat
            # topologies — identical to the historical rack-only bonus).
            dist = topo.tier_distance(src, dst)
            score += (_LOCALITY_BONUS if dist == 0
                      else _SPREAD_BONUS * dist)
        score -= cfg.congestion_weight * self._inflight_on(dst)
        if self.health is not None and not self.health.is_up(dst):
            score *= _DEGRADED_PENALTY  # DEGRADED (placeable, impaired)
        return score

    def _stay_score(self, src: str) -> Optional[float]:
        """The headroom term of *not* moving: what the source looks like
        as a destination. The min_gain margin compares against this."""
        host = self.world.hosts.get(src)
        if host is None:
            return None
        usable = host.memory.usable_bytes()
        if usable <= 0:
            return None
        free_est = usable - self._usage_estimate(src, host.memory) \
            - (self.reserved_on(src) if self.config.reserve_in_flight
               else 0.0)
        return max(0.0, free_est) / usable

    def _best_destination(self, vm: str, src: str,
                          exclude: frozenset = frozenset(),
                          scored: Optional[list] = None
                          ) -> Optional[tuple[str, float]]:
        """Highest-scoring admissible destination as ``(dst, score)``,
        or None. Hosts in ``exclude`` are skipped. With ``scored``
        (tracing), every candidate that survived admission is appended
        with its score — the planner-decision event's evidence.
        """
        cfg = self.config
        best: Optional[tuple[str, float]] = None
        demand = self._demand_of(vm, src)
        for dst in self._candidates():
            # Cheap admission pre-filters before the scoring work.
            if dst in exclude or self._inflight_on(dst) >= cfg.max_per_host:
                continue
            if self._inflight_crossing(src, dst) >= cfg.max_per_uplink:
                continue
            score = self.score_destination(vm, src, dst, demand=demand)
            if score is None:
                continue
            if scored is not None:
                scored.append((dst, score))
            if best is None or score > best[1]:
                best = (dst, score)
        return best

    def _defer(self, seq: Optional[int], vm: str, reason: str,
               until: Optional[float] = None) -> None:
        self.deferrals[reason] = self.deferrals.get(reason, 0) + 1
        if self.metrics.enabled:
            self.metrics.inc(f"planner.deferred.{reason}")
        if reason == "move-cooldown":
            # one-shot, request-time decision: log it (pump-time deferrals
            # recur every pump and would swamp the decision log)
            self.log.append(f"defer {vm}: move-cooldown until {until:g}s "
                            f"@{self.world.now:g}s")
        if self.tracer.enabled:
            args = {"vm": vm, "reason": reason}
            if seq is not None:
                args["seq"] = seq
            if until is not None:
                args["until"] = until
            self.tracer.instant("planner", "deferred", cat="planner",
                                args=args)

    # -- the pump ------------------------------------------------------------
    def pump(self) -> int:
        """Admit every queued request that can run now (FIFO order).

        Returns the number of plans dispatched. Called from
        :meth:`request`, :meth:`on_plan_done`, and health transitions;
        safe to call any time, including re-entrantly — a nested call
        (a dispatch completing synchronously) only requests another
        pass, so the outer loop's queue snapshot can never dispatch a
        request the inner call already handled.
        """
        if self._pumping:
            self._repump = True
            return 0
        self._pumping = True
        try:
            dispatched = 0
            while True:
                self._repump = False
                dispatched += self._pump_pass()
                if not self._repump:
                    return dispatched
        finally:
            self._pumping = False

    def _pump_pass(self) -> int:
        dispatched = 0
        tr = self.tracer
        cfg = self.config
        for req in list(self.queue):
            if req not in self.queue or req.vm in self.active:
                continue  # handled while this snapshot was in flight
            if self._inflight_on(req.src) >= cfg.max_per_host:
                self._defer(req.seq, req.vm, "source-at-capacity")
                continue
            scored: Optional[list] = [] if tr.enabled else None
            best = self._best_destination(req.vm, req.src, scored=scored)
            reason = "no-destination"
            if best is not None and cfg.min_gain > 0:
                stay = self._stay_score(req.src)
                if stay is not None and best[1] < stay + cfg.min_gain:
                    best, reason = None, "insufficient-gain"
            if best is None:
                self._defer(req.seq, req.vm, reason)
                continue
            dst, score = best
            demand = self._demand_of(req.vm, req.src)
            headroom = self.world.hosts[dst].memory.free_bytes() \
                - self.reserved_on(dst) - demand
            plan = MigrationPlan(
                seq=req.seq, vm=req.vm, src=req.src, dst=dst, score=score,
                demand_bytes=demand, at=self.world.now,
                headroom_bytes=headroom)
            self.queue.remove(req)
            self._add_active(plan)
            self.log.append(plan.describe())
            if tr.enabled:
                tr.instant(
                    "planner", "plan", cat="planner",
                    args={"seq": plan.seq, "vm": plan.vm, "src": plan.src,
                          "dst": plan.dst, "score": round(plan.score, 6),
                          "headroom_bytes": round(plan.headroom_bytes, 3),
                          "candidates": [
                              {"dst": d, "score": round(s, 6)}
                              for d, s in scored]})
            dispatched += 1
            if self.dispatch is not None:
                self.dispatch(plan)
        if self.metrics.enabled:
            m = self.metrics
            if dispatched:
                m.counter("planner.plans").inc(dispatched)
            m.gauge("planner.active_plans").set(len(self.active))
            m.gauge("planner.queued").set(len(self.queue))
        return dispatched

    # -- directed admission ----------------------------------------------------
    def direct(self, vm_name: str, src_host: str, dst: str,
               credit_bytes: float = 0.0,
               ignore_cooldown: bool = False) -> Optional[MigrationPlan]:
        """Admit a plan whose destination the *caller* chose.

        The destination-swap rebalancer and decommission-drain know
        exactly which VM goes where; this path runs the same admission
        checks as :meth:`pump` (caps, health, reservation-aware
        headroom) and charges the same ledger, but skips queueing and
        destination scoring. Returns the dispatched plan, or None when
        the move is not admissible *right now* (the caller retries on
        its next round — directed moves are never queued).

        ``credit_bytes`` is headroom the caller knows is about to free
        up at ``dst`` — the outbound half of a destination swap. It is
        credited only in this admission check; the plan's recorded
        ``headroom_bytes`` audit includes it, so a negative value there
        still flags a genuine overcommit.
        """
        cfg = self.config
        if vm_name in self.active or \
                any(r.vm == vm_name for r in self.queue):
            return None
        if not ignore_cooldown and self.in_move_cooldown(vm_name):
            self._defer(None, vm_name, "move-cooldown",
                        until=self._landed_at[vm_name]
                        + cfg.move_cooldown_s)
            return None
        if dst == src_host or dst in self.exclude_hosts \
                or dst not in self.world.hosts:
            return None
        if self.health is not None and not self.health.placeable(dst):
            return None
        if self._inflight_on(src_host) >= cfg.max_per_host \
                or self._inflight_on(dst) >= cfg.max_per_host:
            return None
        if self._inflight_crossing(src_host, dst) >= cfg.max_per_uplink:
            return None
        demand = self._demand_of(vm_name, src_host)
        mem = self.world.hosts[dst].memory
        reserved = self.reserved_on(dst) if cfg.reserve_in_flight else 0.0
        headroom = mem.free_bytes() + credit_bytes - reserved - demand
        if headroom < cfg.min_headroom_bytes:
            return None
        self._seq += 1
        plan = MigrationPlan(
            seq=self._seq, vm=vm_name, src=src_host, dst=dst, score=0.0,
            demand_bytes=demand, at=self.world.now,
            headroom_bytes=headroom)
        self._add_active(plan)
        self.log.append(f"direct#{plan.seq} {vm_name}: "
                        f"{src_host}->{dst} @{self.world.now:g}s")
        if self.tracer.enabled:
            self.tracer.instant(
                "planner", "direct", cat="planner",
                args={"seq": plan.seq, "vm": vm_name, "src": src_host,
                      "dst": dst,
                      "headroom_bytes": round(headroom, 3),
                      "credit_bytes": round(float(credit_bytes), 3)})
        if self.dispatch is not None:
            self.dispatch(plan)
        return plan

    # -- lifecycle callbacks --------------------------------------------------
    def on_plan_done(self, plan: MigrationPlan, outcome: str) -> None:
        """Release the plan's admission slots and re-pump the queue."""
        self._remove_active(plan.vm)
        plan.done_at = self.world.now
        if outcome == "completed":
            self._landed_at[plan.vm] = self.world.now
        self.completed.append((plan, outcome))
        self.log.append(f"done#{plan.seq} {plan.vm} -> {plan.dst}: "
                        f"{outcome} @{self.world.now:g}s")
        if self.tracer.enabled:
            self.tracer.instant(
                "planner", "done", cat="planner",
                args={"seq": plan.seq, "vm": plan.vm, "dst": plan.dst,
                      "outcome": outcome})
        self.pump()

    def replan(self, plan: MigrationPlan,
               exclude: frozenset = frozenset()) -> Optional[MigrationPlan]:
        """Point an active plan at a new destination (old one failing).

        Returns the updated plan, or None when no eligible destination
        exists (the caller should park or give up). The per-host slot on
        the abandoned destination is freed by dropping it from
        ``active`` before re-scoring. Exclusion is cumulative: every
        destination this plan already tried (``plan.tried``) stays
        excluded, so after two failures the VM cannot bounce back to the
        first dead end. ``min_gain`` does not apply — the current
        destination is failing, so any eligible escape beats staying.
        """
        current = self.active.get(plan.vm)
        if current is None:
            return None
        self._remove_active(plan.vm)  # free its slots while re-scoring
        tried = frozenset(plan.tried) | {plan.dst} | exclude
        best = self._best_destination(plan.vm, plan.src, exclude=tried)
        if best is None:
            self._add_active(current)  # keep the old slots
            self.log.append(f"replan#{plan.seq} {plan.vm}: no destination")
            if self.tracer.enabled:
                self.tracer.instant(
                    "planner", "replan", cat="planner",
                    args={"seq": plan.seq, "vm": plan.vm,
                          "outcome": "no-destination"})
            return None
        dst, score = best
        headroom = self.world.hosts[dst].memory.free_bytes() \
            - self.reserved_on(dst) - plan.demand_bytes
        new = MigrationPlan(
            seq=plan.seq, vm=plan.vm, src=plan.src, dst=dst, score=score,
            demand_bytes=plan.demand_bytes, at=self.world.now,
            replans=plan.replans + 1, tried=plan.tried + (plan.dst,),
            headroom_bytes=headroom)
        self._add_active(new)
        self.log.append(f"replan#{new.seq} {new.vm}: "
                        f"{plan.dst} -> {new.dst} @{self.world.now:g}s")
        if self.tracer.enabled:
            self.tracer.instant(
                "planner", "replan", cat="planner",
                args={"seq": new.seq, "vm": new.vm, "old_dst": plan.dst,
                      "dst": new.dst, "score": round(new.score, 6),
                      "tried": list(new.tried)})
        return new

    def _on_health_change(self, host: str, old, new) -> None:
        # capacity may have returned (UP) or appeared (a dead host's VMs
        # freed memory elsewhere) — either way, re-examine the queue
        self.pump()
