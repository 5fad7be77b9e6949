"""Fleet scenario: sustained tenant churn over a multi-rack cluster.

:func:`make_fleet` wires an N-rack cluster running the Agile stack and
puts the :mod:`repro.fleet` service in charge of the VM lifecycle: a
seeded demand stream boots KV and OLTP VMs through the filter/weigher
pipeline, VMs depart when their lease expires, one host is
decommissioned mid-run (the drain path), and the rebalancer sheds
overloaded hosts with the configured strategy.

Like the datacenter scenario, the fleet scenario is workload-free and
MiB-scale: churn itself is the load, so two same-seed runs are
tick-identical (byte-identical placement logs and traces) and a full
run stays under a few seconds.

:func:`fleet_ablation` runs the same demand stream under both
rebalance strategies and compares total migration bytes, watermark
breaches, rack imbalance, and rejected boots — the destination-swap
vs greedy gate CI enforces.
"""

from __future__ import annotations

from dataclasses import dataclass, field, replace
from typing import Optional

from repro.experiments.racked import (
    Cluster,
    RackedConfig,
    build_racked,
    fleet_services,
)
from repro.faults import FaultSchedule
from repro.fleet import (
    DemandConfig,
    DemandGenerator,
    FleetHostView,
    FleetScheduler,
    RebalanceConfig,
    SwapRebalancer,
)
from repro.util import MiB

__all__ = ["FleetConfig", "Fleet", "ablation_config", "fleet_ablation",
           "fleet_run", "make_fleet", "quick_config"]


@dataclass(frozen=True)
class FleetConfig(RackedConfig):
    """The churn cluster: a :class:`RackedConfig` plus the drain leg and
    the rebalancer."""

    #: rebalance strategy for the single-run scenario
    strategy: str = "swap"
    #: host decommissioned mid-run (None disables the drain leg)
    decommission_host: Optional[str] = "r0h0"
    decommission_at: float = 30.0
    rebalance: RebalanceConfig = field(default_factory=lambda:
        RebalanceConfig(interval_s=2.0, high_watermark=0.8,
                        target_watermark=0.65, max_moves_per_round=4))


def quick_config(seed: int = 0, **overrides) -> FleetConfig:
    """The CI-sized run: 20 s of demand, ~32 s simulated.

    Hotter than the full scenario (smaller hosts, faster arrivals,
    lower watermarks) so the short window still exercises all three
    lifecycle legs — boots, the drain, and rebalance moves.
    """
    demand = DemandConfig(pattern="bursty", horizon_s=20.0,
                          base_rate_per_s=0.9, n_tenants=6,
                          mean_lifetime_s=15.0, min_lifetime_s=5.0,
                          seed=seed)
    rebalance = RebalanceConfig(interval_s=2.0, high_watermark=0.7,
                                target_watermark=0.58,
                                max_moves_per_round=4)
    return FleetConfig(seed=seed, until=32.0, demand=demand,
                       host_memory_bytes=48 * MiB, rebalance=rebalance,
                       decommission_at=12.0, **overrides)


def ablation_config(seed: int = 0, quick: bool = False) -> FleetConfig:
    """The swap-vs-greedy comparison scenario: a flash crowd over a
    moderately loaded cluster.

    The regime matters: the strategies separate when every overload
    *can* be relieved (roomy destinations) but greedy pays big-VM bytes
    doing it — under saturation, greedy's failed sheds cost zero bytes
    and mask the difference. The flash spike overloads a few hosts
    while the rest keep headroom, which is exactly that regime.
    """
    demand = DemandConfig(
        pattern="flash-crowd", horizon_s=35.0 if quick else 60.0,
        base_rate_per_s=0.4, n_tenants=6, mean_lifetime_s=30.0,
        min_lifetime_s=8.0, flash_at=20.0, flash_duration_s=8.0,
        flash_factor=5.0, seed=seed)
    rebalance = RebalanceConfig(interval_s=2.0, high_watermark=0.75,
                                target_watermark=0.6,
                                max_moves_per_round=4)
    return FleetConfig(seed=seed, until=48.0 if quick else 75.0,
                       host_memory_bytes=72 * MiB, demand=demand,
                       rebalance=rebalance, decommission_host=None)


@dataclass
class Fleet(Cluster):
    """A wired fleet scenario plus every service driving it."""

    view: FleetHostView
    scheduler: FleetScheduler
    rebalancer: SwapRebalancer
    #: the materialized demand stream (determinism witness)
    specs: list
    config: FleetConfig

    def run(self, until: Optional[float] = None) -> None:
        super().run(self.config.until if until is None else until)

    # -- outcome distillation -------------------------------------------------
    def migration_bytes(self) -> float:
        """Bytes moved by every migration attempt (the ablation metric)."""
        return sum(r.total_bytes
                   for r in self.control.supervisor.attempts)

    def rack_imbalance(self) -> float:
        """Max-minus-min resident bytes across racks (retired and
        draining hosts excluded — an empty drained host is success,
        not imbalance)."""
        per_rack: dict[str, float] = {}
        for state in self.view.refresh().values():
            if state.rack is None or state.retired or state.draining:
                continue
            per_rack[state.rack] = per_rack.get(state.rack, 0.0) \
                + state.resident_bytes
        if not per_rack:
            return 0.0
        return max(per_rack.values()) - min(per_rack.values())


def make_fleet(config: Optional[FleetConfig] = None,
               schedule: Optional[FaultSchedule] = None,
               tracer=None, metrics=None) -> Fleet:
    """Wire the churn scenario (world, control plane, fleet services).

    The demand stream is generated eagerly and scheduled up front;
    everything that happens afterwards is a deterministic function of
    the simulator's event order.
    """
    cfg = config or FleetConfig()
    cluster = build_racked(cfg, schedule, tracer, metrics)
    world, planner = cluster.world, cluster.control.planner
    view, scheduler = fleet_services(cluster)
    rebalancer = SwapRebalancer(
        world, planner, view,
        config=replace(cfg.rebalance, strategy=cfg.strategy))

    specs = DemandGenerator(cfg.seeded_demand()).generate()
    scheduler.run_demand(specs)
    rebalancer.start()
    if cfg.decommission_host is not None:
        world.sim.call_at(cfg.decommission_at, scheduler.decommission,
                          cfg.decommission_host)
    return Fleet(**vars(cluster), view=view, scheduler=scheduler,
                 rebalancer=rebalancer, specs=specs, config=cfg)


def fleet_run(config: Optional[FleetConfig] = None,
              schedule: Optional[FaultSchedule] = None,
              tracer=None, metrics=None) -> dict:
    """Run the churn scenario and distill the outcome.

    ``placement_log`` + ``rebalance_log`` + ``plan_log`` are the
    determinism witnesses: two same-seed runs must produce them
    byte-identically (and byte-identical traces when recorded).
    """
    fleet = make_fleet(config, schedule, tracer=tracer,
                       metrics=metrics)
    fleet.run()
    sched = fleet.scheduler
    return {
        "fleet": fleet,
        "arrivals": len(fleet.specs),
        "counters": dict(sched.counters),
        "rebalance": dict(fleet.rebalancer.counters),
        "rejected": list(sched.rejected),
        "placement_log": list(sched.placement_log),
        "rebalance_log": list(fleet.rebalancer.log),
        "plan_log": list(fleet.control.planner.log),
        "migration_bytes": fleet.migration_bytes(),
        "rack_imbalance_bytes": fleet.rack_imbalance(),
        "alive": len(sched.running),
        "summary": sched.describe(),
    }


def fleet_ablation(seed: int = 0, quick: bool = False,
                   config: Optional[FleetConfig] = None) -> dict:
    """Destination-swap vs greedy rebalancing on one demand stream.

    Both arms see byte-for-byte the same arrivals, pipeline, and
    planner knobs; only the shedding strategy differs. The drain leg is
    disabled so the comparison isolates rebalancing (drains migrate the
    same VMs under both arms and would dilute the signal).
    """
    base = config or ablation_config(seed=seed, quick=quick)
    base = replace(base, decommission_host=None)
    arms = {}
    for strategy in ("greedy", "swap"):
        arms[strategy] = fleet_run(replace(base, strategy=strategy))
    return {
        "greedy": arms["greedy"],
        "swap": arms["swap"],
        "swap_wins_bytes": (arms["swap"]["migration_bytes"]
                            <= arms["greedy"]["migration_bytes"]),
    }
