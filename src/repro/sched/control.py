"""Cluster control plane: triggers → planner → supervised engines.

:class:`ClusterControlPlane` is the assembly that turns the paper's
single-pair §III-B loop into a cluster service:

1. every monitored host runs a :class:`~repro.core.trigger.WatermarkTrigger`
   whose alert submits the selected VMs to the shared
   :class:`~repro.sched.planner.MigrationPlanner`;
2. the planner scores destinations (headroom, rack locality vs
   anti-affinity, congestion, health) and admits plans FIFO under
   per-host / per-uplink concurrency limits;
3. admitted plans are dispatched through one
   :class:`~repro.faults.MigrationSupervisor`, which parks aborted
   attempts until the destination's health returns to UP and asks the
   planner to re-plan after repeated aborts;
4. when a plan's final attempt ends, its admission slots are released,
   the source's trigger is re-armed, and the queue is pumped again.

Every dispatched plan runs the paper's Agile engine: the VM's portable
per-VM VMD namespace goes with it, so no destination swap backend is
needed.
"""

from __future__ import annotations

from typing import TYPE_CHECKING, Callable, Optional

from repro.core.agile import AgileMigration
from repro.core.base import MigrationConfig, MigrationManager
from repro.core.trigger import WatermarkConfig, WatermarkTrigger
from repro.faults.recovery import MigrationSupervisor
from repro.sched.health import HostHealthTracker
from repro.sched.planner import MigrationPlan, MigrationPlanner, PlannerConfig
from repro.vm.vm import VmState

if TYPE_CHECKING:  # pragma: no cover - typing only
    from repro.cluster.world import World
    from repro.host.host import Host

__all__ = ["ClusterControlPlane"]

#: aborted attempts before the supervisor asks the planner for a
#: different destination
REPLAN_AFTER_ABORTS = 1


class ClusterControlPlane:
    """Owns the health tracker, planner, supervisor, and triggers.

    Parameters
    ----------
    world:
        A wired :class:`~repro.cluster.World`; attach faults *before*
        constructing when ``health_aware`` (the tracker subscribes to
        the injector).
    health_aware:
        When False the control plane runs *health-blind*: no tracker,
        the planner scores by headroom/topology alone, and the
        supervisor falls back to exponential backoff — the ablation
        baseline. A health-aware plane keeps a failed host out of
        placement for the tracker's default 30 s cooldown.

    :attr:`workload_of` maps a VM name to the workload (or None) handed
    to its engine; a scenario running a workload sets it once the
    workload exists.
    """

    def __init__(self, world: "World", health_aware: bool = True,
                 planner_config: Optional[PlannerConfig] = None,
                 migration_config: Optional[MigrationConfig] = None):
        self.world = world
        self.migration_config = migration_config or MigrationConfig()
        self.workload_of: Callable[[str], object] = lambda vm_name: None
        self.health: Optional[HostHealthTracker] = None
        if health_aware and world.faults is not None:
            self.health = HostHealthTracker(world)
            if world.vmd is not None:
                world.vmd.attach_health(self.health)
        self.planner = MigrationPlanner(
            world, topology=world.topology, health=self.health,
            config=planner_config, dispatch=self._dispatch)
        self.supervisor = MigrationSupervisor(
            world, health=self.health,
            replan=self._replan, replan_after_aborts=REPLAN_AFTER_ABORTS)
        self.triggers: dict[str, WatermarkTrigger] = {}
        #: vm name → its current plan (tracks supervisor re-plans)
        self._plan_of: dict[str, MigrationPlan] = {}
        #: src host → migrations still in flight from its last alert;
        #: the trigger re-arms when this reaches zero, not on the first
        #: completion (a multi-VM shed must fully land first)
        self._outstanding: dict[str, int] = {}
        if self.planner.config.forecast_alpha > 0:
            world.start_usage_feed()
            world.subscribe_usage(self.planner.observe_usage)

    # -- triggers -------------------------------------------------------------
    def add_trigger(self, host_name: str,
                    config: Optional[WatermarkConfig] = None,
                    select: Optional[Callable] = None
                    ) -> WatermarkTrigger:
        """Install the watermark trigger for one host.

        A VM's WSS is its cgroup reservation (idle-but-committed memory
        counts), summed over the live VMs on the host that are not
        migrating, as in the single-pair loop. The trigger's alert
        feeds the planner; it is re-armed when every migration it
        caused has ended. ``select`` overrides the VM-selection policy
        (largest-first by default); an SLO-aware deployment passes
        :func:`repro.telemetry.slo_aware_selector`.
        """
        host = self.world.hosts[host_name]
        trigger = WatermarkTrigger(
            self.world.sim, usable_bytes=host.memory.usable_bytes(),
            wss_of=lambda: _reserved_wss(host),
            migrate=lambda names: self._on_alert(host_name, names),
            recorder=self.world.recorder, config=config,
            select=select, metrics=self.world.metrics)
        self.triggers[host_name] = trigger
        return trigger

    def _on_alert(self, host_name: str, names: list[str]) -> bool:
        tracer = self.world.tracer
        if tracer.enabled:
            tracer.instant(f"host:{host_name}", "watermark-alert",
                           cat="trigger",
                           args={"vms": list(names)})
        if self.world.metrics.enabled:
            self.world.metrics.inc(f"trigger.alerts.{host_name}")
        accepted = 0
        for name in names:
            if self.planner.request(name, host_name):
                accepted += 1
        if accepted:
            # the trigger disarms; re-arm once all `accepted` plans end
            self._outstanding[host_name] = \
                self._outstanding.get(host_name, 0) + accepted
            return True
        return False  # nothing taken (duplicates/cooldown); stay armed

    # -- dispatch -------------------------------------------------------------
    def _factory_for(self, plan: MigrationPlan
                     ) -> Callable[[], MigrationManager]:
        def factory() -> MigrationManager:
            world = self.world
            vm = world.vms[plan.vm]
            return AgileMigration(
                world.sim, world.network,
                world.hosts[plan.src], world.hosts[plan.dst],
                vm, world.recorder,
                config=self.migration_config,
                workload=self.workload_of(plan.vm),
                tracer=world.tracer, metrics=world.metrics)
        return factory

    def _dispatch(self, plan: MigrationPlan) -> None:
        self._plan_of[plan.vm] = plan
        final = self.supervisor.dispatch(self._factory_for(plan))
        final.add_callback(
            lambda ev: self._on_final(plan.vm, ev.value))

    def _on_final(self, vm_name: str, report) -> None:
        plan = self._plan_of.pop(vm_name, None)
        if plan is None:  # pragma: no cover - defensive
            return
        outcome = report.outcome.value if report.outcome else "unknown"
        self.planner.on_plan_done(plan, outcome)
        left = self._outstanding.get(plan.src, 1) - 1
        if left > 0:
            self._outstanding[plan.src] = left
            return  # sibling migrations from the same alert still run
        self._outstanding.pop(plan.src, None)
        trigger = self.triggers.get(plan.src)
        if trigger is not None:
            trigger.rearm()

    def _replan(self, mgr: MigrationManager
                ) -> Optional[Callable[[], MigrationManager]]:
        plan = self._plan_of.get(mgr.vm.name)
        if plan is None:
            return None
        # planner.replan() also excludes every destination in plan.tried
        new = self.planner.replan(plan, exclude=frozenset({mgr.dst.name}))
        if new is None:
            return None
        self._plan_of[new.vm] = new
        return self._factory_for(new)

    def stop(self) -> None:
        for trigger in self.triggers.values():
            trigger.stop()


def _reserved_wss(host: "Host") -> dict[str, float]:
    """Cgroup reservation of each live, non-migrating VM on ``host``."""
    out: dict[str, float] = {}
    for name in sorted(host.vms):
        vm = host.vms[name]
        if vm.migrating or vm.state is VmState.TERMINATED:
            continue
        out[name] = host.memory.binding(name).cgroup.reservation_bytes
    return out
