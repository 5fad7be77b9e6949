"""The racked Agile cluster every control-plane scenario runs on.

Each cluster scenario is the paper's §III-B loop scaled out: VMs on
portable per-VM VMD namespaces (:meth:`~repro.cluster.World.boot_vm`),
watermark triggers, and Agile migrations under one
:class:`~repro.sched.ClusterControlPlane`. :func:`build_cluster` wires
that world for the datacenter, SLO, fleet and flash-crowd scenarios.
:func:`fleet_services` adds the placement stack the fleet and
flash-crowd scenarios share — the host view, the filter/weigher
pipeline and the scheduler — over a cluster shaped by a
:class:`RackedConfig`.
"""

from __future__ import annotations

from dataclasses import dataclass, field, replace
from typing import Sequence

from repro.cluster.world import World
from repro.core.base import MigrationConfig
from repro.faults import FaultSchedule
from repro.fleet import (
    AntiAffinityFilter,
    AvailabilityFilter,
    CongestionWeigher,
    DemandConfig,
    FleetHostView,
    FleetScheduler,
    HeadroomFilter,
    HeadroomWeigher,
    HealthFilter,
    PlacementPipeline,
    RackSpreadWeigher,
    WatermarkFilter,
)
from repro.sched import ClusterControlPlane, PlannerConfig, Topology
from repro.util import MiB

__all__ = ["Cluster", "RackedConfig", "build_cluster", "build_racked",
           "fleet_services"]

#: VMD placement chunk on the donors
DONOR_CHUNK_BYTES = 4 * MiB
#: boot placement: free memory a host must keep after a boot, the
#: fraction of usable memory a boot may fill, and the most VMs of one
#: tenant per host
MIN_BOOT_HEADROOM_BYTES = 2 * MiB
BOOT_WATERMARK = 0.85
ANTI_AFFINITY_MAX = 3


@dataclass
class Cluster:
    """A racked world and the Agile control plane driving it."""

    world: World
    topology: Topology
    control: ClusterControlPlane

    def run(self, until: float) -> None:
        self.world.run(until=until)

    def outcome_counts(self) -> dict[str, int]:
        """Migration attempts by outcome (``in-flight`` while open)."""
        counts: dict[str, int] = {}
        for report in self.control.supervisor.attempts:
            key = report.outcome.value if report.outcome else "in-flight"
            counts[key] = counts.get(key, 0) + 1
        return counts


def build_cluster(cfg, rack_memory: Sequence[float], hosts_per_rack: int,
                  n_donors: int, schedule=None, tracer=None, metrics=None,
                  **control) -> Cluster:
    """Wire racks ``r0``, ``r1``, … of ``hosts_per_rack`` hosts
    ``r{i}h{j}`` with ``rack_memory[i]`` bytes each, ``n_donors`` VMD
    donors ``vmd{k}`` outside the topology (donor capacity survives rack
    crashes), the fault ``schedule`` (none by default) and the control
    plane, built with ``control`` as keyword arguments.

    ``cfg`` is the scenario's config; it supplies ``dt``, ``seed``,
    ``net_bandwidth_bps``, ``uplink_bps``, ``host_os_bytes``,
    ``vmd_server_bytes`` and ``migration``. Faults attach before the
    control plane, so its health tracker sees every injection.
    """
    world = World(dt=cfg.dt, seed=cfg.seed,
                  net_bandwidth_bps=cfg.net_bandwidth_bps, tracer=tracer,
                  metrics=metrics)
    topo = Topology(uplink_bps=cfg.uplink_bps)
    world.use_topology(topo)
    for i, memory in enumerate(rack_memory):
        rack = f"r{i}"
        topo.add_rack(rack)
        for j in range(hosts_per_rack):
            world.add_host(f"{rack}h{j}", memory,
                           host_os_bytes=cfg.host_os_bytes, rack=rack)
    world.add_vmd([(f"vmd{k}", cfg.vmd_server_bytes)
                   for k in range(n_donors)],
                  placement_chunk_bytes=DONOR_CHUNK_BYTES)
    world.attach_faults(schedule if schedule is not None
                        else FaultSchedule())
    return Cluster(world, topo, ClusterControlPlane(
        world, migration_config=cfg.migration, **control))


@dataclass(frozen=True)
class RackedConfig:
    """A MiB-scale racked cluster under the fleet services and a tenant
    demand stream: small enough for sub-second CI runs."""

    __test__ = False

    n_racks: int = 3
    hosts_per_rack: int = 3
    dt: float = 0.1
    seed: int = 0
    net_bandwidth_bps: float = 40e6
    uplink_bps: float = 60e6
    host_memory_bytes: float = 56 * MiB
    host_os_bytes: float = 1 * MiB
    vmd_server_bytes: float = 1024 * MiB
    #: simulated duration (the demand horizon plus drain time)
    until: float = 75.0
    health_aware: bool = True
    demand: DemandConfig = field(default_factory=lambda: DemandConfig(
        pattern="bursty", horizon_s=60.0, base_rate_per_s=0.6,
        n_tenants=6, mean_lifetime_s=30.0, min_lifetime_s=8.0))
    #: planner knobs; swaps need ``max_per_host >= 2`` (each host in a
    #: swap is simultaneously a source and a destination)
    planner: PlannerConfig = field(default_factory=lambda: PlannerConfig(
        min_headroom_bytes=2 * MiB, max_per_host=2, max_per_uplink=8,
        move_cooldown_s=6.0, forecast_alpha=0.0))
    migration: MigrationConfig = field(default_factory=lambda:
        MigrationConfig(backlog_cap_bytes=4 * MiB,
                        stopcopy_threshold_bytes=256 * 2 ** 10))

    def seeded_demand(self) -> DemandConfig:
        """The demand config with the scenario seed folded in."""
        if self.demand.seed == self.seed:
            return self.demand
        return replace(self.demand, seed=self.seed)


def build_racked(cfg: RackedConfig, schedule=None, tracer=None,
                 metrics=None) -> Cluster:
    """The cluster of a :class:`RackedConfig`: uniform racks, two
    donors, the configured planner and health awareness."""
    return build_cluster(cfg, [cfg.host_memory_bytes] * cfg.n_racks,
                         cfg.hosts_per_rack, 2, schedule, tracer, metrics,
                         health_aware=cfg.health_aware,
                         planner_config=cfg.planner)


def fleet_services(cluster: Cluster, **scheduler
                   ) -> tuple[FleetHostView, FleetScheduler]:
    """The host view, the five-filter/three-weigher boot pipeline and
    the :class:`~repro.fleet.FleetScheduler` (``scheduler`` are its
    keyword arguments), sharing the control plane's planner ledger."""
    world, control = cluster.world, cluster.control
    view = FleetHostView(world, control.planner, health=control.health)
    pipeline = PlacementPipeline(
        filters=[AvailabilityFilter(),
                 HealthFilter(allowed=("UP",)),
                 HeadroomFilter(MIN_BOOT_HEADROOM_BYTES),
                 WatermarkFilter(BOOT_WATERMARK),
                 AntiAffinityFilter(ANTI_AFFINITY_MAX)],
        weighers=[HeadroomWeigher(1.0),
                  RackSpreadWeigher(0.02),
                  CongestionWeigher(0.1)])
    sched = FleetScheduler(world, control.planner, view, pipeline,
                           **scheduler)
    # the view learns tenants from the scheduler's boot bookkeeping
    view.tenant_of = sched.tenant_by_vm.get
    return view, sched
