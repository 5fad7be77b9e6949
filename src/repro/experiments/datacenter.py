"""Datacenter-scale scenario: racks, correlated faults, and the control
plane rebalancing VMs across them.

:func:`make_datacenter` wires an N-rack cluster whose hosts run the
Agile stack under the :class:`~repro.sched.ClusterControlPlane`;
:func:`datacenter_run` executes it against a fault schedule and distills
the outcome counters the ablation bench and tests assert on.

The scenario is deliberately workload-free: per-VM working-set sizes are
supplied by deterministic ramp functions (``wss_ramp``), so the
watermark triggers, planner, and fault machinery are exercised without
stochastic workload noise — two same-seed runs are tick-identical, and
the MiB-scale sizes keep a full run under a second.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Optional

from repro.cluster.setup import preload_dataset
from repro.core.base import MigrationConfig, MigrationOutcome
from repro.core.trigger import WatermarkConfig
from repro.experiments.racked import Cluster, build_cluster
from repro.faults import FaultKind, FaultSchedule, FaultSpec
from repro.sched import PlannerConfig
from repro.util import MiB
from repro.vm.vm import VmState

__all__ = ["DatacenterConfig", "Datacenter", "churn_config", "churn_run",
           "datacenter_run", "honeypot_schedule", "make_datacenter"]

#: overloaded first-rack hosts run this many VMs each
VMS_PER_HOT_HOST = 2
#: per-VM move cooldown of the derived planner defaults
VM_MOVE_COOLDOWN_S = 10.0
#: the trigger watermarks; every host runs a trigger (not just the hot
#: rack), so a destination pushed over its watermark alerts too —
#: required to even *observe* rebalance ping-pong
WATERMARK = WatermarkConfig(high_watermark=0.7, low_watermark=0.45,
                            check_interval_s=1.0)


def honeypot_schedule() -> FaultSchedule:
    """The correlated-failure timeline of the fault-aware ablation.

    The big-memory last rack ("the honeypot") flaps: a first crash while
    the watermark triggers are deciding where to shed load, then — after
    enough time for blind migrations to land there — a long second
    crash. A health-aware planner sees the first crash (DOWN, then
    RECENTLY_FAILED through the cooldown) and routes around the rack; a
    health-blind planner is lured by its headroom and loses the migrated
    VMs to the second crash.
    """
    return FaultSchedule([
        FaultSpec(FaultKind.RACK_CRASH, "r2", at=0.5, duration=5.5),
        FaultSpec(FaultKind.RACK_CRASH, "r2", at=11.5, duration=30.0),
    ])


@dataclass(frozen=True)
class DatacenterConfig:
    """Small-but-structured cluster: MiB scale for sub-second runs."""

    __test__ = False

    n_racks: int = 3
    hosts_per_rack: int = 4
    dt: float = 0.1
    seed: int = 0
    #: host NIC bandwidth (bytes/s)
    net_bandwidth_bps: float = 20e6
    #: ToR uplink bandwidth — half the rack's aggregate NIC capacity
    uplink_bps: float = 20e6
    host_memory_bytes: float = 80 * MiB
    host_os_bytes: float = 1 * MiB
    #: hosts in the *last* rack get this much memory instead — the rack
    #: is a headroom honeypot that a health-blind planner gravitates to
    big_host_memory_bytes: float = 160 * MiB
    vm_memory_bytes: float = 32 * MiB
    #: background VMs parked on every middle-rack host
    filler_vm_bytes: float = 16 * MiB
    vmd_server_bytes: float = 512 * MiB
    health_aware: bool = True
    #: planner knobs; None derives churn-aware defaults (reservation on,
    #: projection at the scenario's high watermark, cooldown, min-gain,
    #: EWMA forecast) — pass an explicit config to ablate them
    planner: Optional[PlannerConfig] = None
    migration: MigrationConfig = field(default_factory=lambda: MigrationConfig(
        backlog_cap_bytes=4 * MiB, stopcopy_threshold_bytes=256 * 2 ** 10))


@dataclass
class Datacenter(Cluster):
    """A wired datacenter plus the control plane driving it."""

    config: DatacenterConfig
    #: VMs the overloaded hosts will shed (migration candidates)
    hot_vms: list[str]

    # -- outcome distillation ------------------------------------------------
    def failed_or_aborted(self) -> int:
        """Attempts that did not complete (ABORTED, FAILED, or RETRIED —
        a retried attempt *was* an abort)."""
        bad = (MigrationOutcome.ABORTED, MigrationOutcome.FAILED,
               MigrationOutcome.RETRIED)
        return sum(1 for r in self.control.supervisor.attempts
                   if r.outcome in bad)

    def vm_unavailable_seconds(self, until: float) -> float:
        return self.world.faults.log.vm_unavailable_seconds(until)

    def dead_vms(self) -> list[str]:
        return sorted(n for n, vm in self.world.vms.items()
                      if vm.state is VmState.TERMINATED)


def make_datacenter(schedule: Optional[FaultSchedule] = None,
                    config: Optional[DatacenterConfig] = None,
                    tracer=None, metrics=None) -> Datacenter:
    """Wire the rebalance scenario.

    * rack ``r0``: every host is overloaded (``VMS_PER_HOT_HOST`` VMs
      whose combined WSS crosses the high watermark) — the shed sources;
    * middle racks (``r1``...): one small filler VM per host — healthy
      destinations with moderate headroom;
    * the last rack: empty hosts with double memory — the best-scoring
      destination on headroom alone, and the rack the fault schedule is
      expected to crash (the honeypot the health tracker defuses);
    * VMD donors live on two out-of-topology hosts so donor capacity
      survives rack crashes (donor loss is exercised in the tests).

    Every host's watermark trigger counts each resident, non-migrating
    VM's full reservation (idle-but-committed memory).
    """
    cfg = config or DatacenterConfig()
    if cfg.n_racks < 2:
        raise ValueError("the scenario needs at least two racks")
    planner_cfg = cfg.planner
    if planner_cfg is None:
        # churn-aware defaults: charge in-flight demand, refuse landings
        # that would cross the scenario's own high watermark, and damp
        # re-sheds with cooldown + gain margin + a short EWMA forecast
        planner_cfg = PlannerConfig(
            min_headroom_bytes=2 * MiB,
            project_watermark=WATERMARK.high_watermark,
            move_cooldown_s=VM_MOVE_COOLDOWN_S,
            min_gain=0.05,
            forecast_alpha=0.3)
    last = cfg.n_racks - 1
    cluster = build_cluster(
        cfg, [cfg.host_memory_bytes] * last + [cfg.big_host_memory_bytes],
        cfg.hosts_per_rack, 2, schedule, tracer, metrics,
        health_aware=cfg.health_aware, planner_config=planner_cfg)
    world = cluster.world

    # VMs: hot rack overloaded, middle racks lightly filled.
    hot_vms: list[str] = []
    for i in range(last):
        nbytes = cfg.vm_memory_bytes if i == 0 else cfg.filler_vm_bytes
        for j in range(cfg.hosts_per_rack):
            for _ in range(VMS_PER_HOT_HOST if i == 0 else 1):
                host = f"r{i}h{j}"
                name = f"vm{len(world.vms)}"
                vm = world.boot_vm(name, nbytes, host)
                preload_dataset(vm, world.manager_of(host), nbytes)
                if i == 0:
                    hot_vms.append(name)

    for name in sorted(world.hosts):
        cluster.control.add_trigger(name, config=WATERMARK)

    return Datacenter(**vars(cluster), config=cfg, hot_vms=hot_vms)


def datacenter_run(schedule: Optional[FaultSchedule] = None,
                   config: Optional[DatacenterConfig] = None,
                   until: float = 60.0, tracer=None,
                   metrics=None) -> dict:
    """Run the rebalance scenario and distill the outcome.

    Returns the counters the ablation compares: migration attempt
    outcomes, VM-unavailable seconds, dead VMs, and the planner's
    decision log (the determinism witness). ``tracer`` (a
    :class:`repro.obs.Tracer`) records the run's sim-clock trace.
    """
    dc = make_datacenter(schedule, config, tracer=tracer,
                         metrics=metrics)
    dc.run(until=until)
    planner = dc.control.planner
    return {
        "dc": dc,
        "outcomes": dc.outcome_counts(),
        "failed_or_aborted": dc.failed_or_aborted(),
        "unavailable_s": dc.vm_unavailable_seconds(until),
        "dead_vms": dc.dead_vms(),
        "plan_log": list(planner.log),
        "deferrals": dict(planner.deferrals),
        "fault_log": dc.world.faults.log.describe(),
    }


def churn_config(churn_aware: bool = True, seed: int = 0
                 ) -> DatacenterConfig:
    """The rebalance ping-pong scenario (fault-free).

    The last rack is turned from a big-memory honeypot into a *small*
    one: empty 40 MiB hosts whose free-memory *fraction* (1.0) out-scores
    every middle-rack filler host, but whose absolute usable memory
    (39 MiB) means any 32 MiB landing immediately crosses the 0.7 high
    watermark. A naive planner (no reservation, no projection — the
    pre-fix behavior, ``churn_aware=False``) sends concurrent sheds
    there, double-booking hosts and re-shedding every landed VM; the
    aware planner's projection rejects the trap outright and its
    reservations spread the concurrent sheds across the middle rack.

    Congestion penalty and admission caps are equalized across both arms
    (``congestion_weight=0``, 2 per host, 8 per uplink) so the ablation
    isolates reservation + projection + hysteresis.
    """
    caps = dict(max_per_host=2, max_per_uplink=8, congestion_weight=0.0)
    if churn_aware:
        planner = PlannerConfig(min_headroom_bytes=4 * MiB,
                                project_watermark=0.7,
                                move_cooldown_s=10.0,
                                min_gain=0.05,
                                forecast_alpha=0.3,
                                **caps)
    else:
        planner = PlannerConfig(reserve_in_flight=False, **caps)
    return DatacenterConfig(seed=seed,
                            big_host_memory_bytes=40 * MiB,
                            filler_vm_bytes=12 * MiB,
                            planner=planner)


def churn_run(churn_aware: bool = True, seed: int = 0,
              until: float = 40.0, tracer=None, metrics=None) -> dict:
    """Run the churn scenario; see :func:`churn_config`.

    Adds churn-specific distillations to the :func:`datacenter_run`
    result: ``migrations`` (total plans dispatched, including replans)
    and ``resheds`` — (vm, landed_at, replanned_at) tuples for every VM
    re-planned within ``window_s`` of landing, the ping-pong signature.
    """
    res = datacenter_run(None, churn_config(churn_aware, seed),
                         until=until, tracer=tracer, metrics=metrics)
    planner = res["dc"].control.planner
    res["migrations"] = sum(1 for line in planner.log
                            if line.startswith("plan#"))
    res["resheds"] = resheds_within(planner, window_s=10.0)
    return res


def resheds_within(planner, window_s: float) -> list[tuple]:
    """(vm, landed_at, replanned_at) for every completed plan whose VM
    got a *new* plan within ``window_s`` of landing — each one is a
    migration the cluster paid for twice."""
    landings: dict[str, list[float]] = {}
    for plan, outcome in planner.completed:
        if outcome == "completed" and plan.done_at is not None:
            landings.setdefault(plan.vm, []).append(plan.done_at)
    out = []
    plans = [p for p, _ in planner.completed] + list(planner.active.values())
    for plan in plans:
        for landed in landings.get(plan.vm, ()):
            if 0 < plan.at - landed <= window_s:
                out.append((plan.vm, landed, plan.at))
    return sorted(set(out))
