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

The control plane is engine-agnostic: ``technique`` picks any engine in
:data:`repro.core.ENGINES`, and ``dst_backend_of`` supplies per-destination
swap backends for the baselines (Agile's portable namespace needs none).
"""

from __future__ import annotations

from typing import TYPE_CHECKING, Callable, Optional

from repro.core import ENGINES
from repro.core.base import MigrationConfig, MigrationManager
from repro.core.trigger import WatermarkConfig, WatermarkTrigger
from repro.faults.recovery import MigrationSupervisor, RetryPolicy
from repro.sched.health import HostHealthTracker
from repro.sched.planner import MigrationPlan, MigrationPlanner, PlannerConfig

if TYPE_CHECKING:  # pragma: no cover - typing only
    from repro.cluster.world import World

__all__ = ["ClusterControlPlane"]


class ClusterControlPlane:
    """Owns the health tracker, planner, supervisor, and triggers.

    Parameters
    ----------
    world:
        A wired :class:`~repro.cluster.World`; attach faults *before*
        constructing when ``health_aware`` (the tracker subscribes to
        the injector).
    technique:
        Migration engine for dispatched plans.
    health_aware:
        When False the control plane runs *health-blind*: no tracker,
        the planner scores by headroom/topology alone, and the
        supervisor falls back to exponential backoff — the ablation
        baseline.
    workload_of:
        ``vm_name -> workload`` (or None) handed to each engine.
    dst_backend_of:
        ``dst_host -> SwapBackend`` for the baseline engines; Agile
        carries its per-VM namespace and ignores it.
    replan_after_aborts:
        Aborted attempts before the supervisor asks the planner for a
        different destination.
    """

    def __init__(self, world: "World", technique: str = "agile",
                 health_aware: bool = True,
                 cooldown_s: float = 30.0,
                 planner_config: Optional[PlannerConfig] = None,
                 retry_policy: Optional[RetryPolicy] = None,
                 migration_config: Optional[MigrationConfig] = None,
                 workload_of: Optional[Callable[[str], object]] = None,
                 dst_backend_of: Optional[Callable[[str], object]] = None,
                 exclude_hosts: tuple = (),
                 replan_after_aborts: int = 1):
        self.world = world
        self.technique = technique
        self.migration_config = migration_config or MigrationConfig()
        self.workload_of = workload_of or (lambda vm_name: None)
        self.dst_backend_of = dst_backend_of or (lambda dst: None)
        self.health: Optional[HostHealthTracker] = None
        if health_aware and world.faults is not None:
            self.health = HostHealthTracker(world, cooldown_s=cooldown_s)
            if world.vmd is not None:
                world.vmd.attach_health(self.health)
        self.planner = MigrationPlanner(
            world, topology=world.topology, health=self.health,
            config=planner_config, dispatch=self._dispatch,
            exclude_hosts=exclude_hosts)
        self.supervisor = MigrationSupervisor(
            world, policy=retry_policy, health=self.health,
            replan=self._replan, replan_after_aborts=replan_after_aborts)
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
                    wss_of: Callable[[], dict[str, float]],
                    config: Optional[WatermarkConfig] = None,
                    select: Optional[Callable] = None
                    ) -> WatermarkTrigger:
        """Install the watermark trigger for one host.

        ``wss_of`` supplies the per-VM WSS estimates for VMs currently
        on the host (the caller filters out migrating VMs, as in the
        single-pair loop). The trigger's alert feeds the planner; it is
        re-armed when every migration it caused has ended. ``select``
        overrides the VM-selection policy (largest-first by default);
        an SLO-aware deployment passes
        :func:`repro.telemetry.slo_aware_selector`.
        """
        host = self.world.hosts[host_name]
        trigger = WatermarkTrigger(
            self.world.sim, usable_bytes=host.memory.usable_bytes(),
            wss_of=wss_of,
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
            return ENGINES[self.technique](
                world.sim, world.network,
                world.hosts[plan.src], world.hosts[plan.dst],
                vm, world.recorder,
                dst_backend=self.dst_backend_of(plan.dst),
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
