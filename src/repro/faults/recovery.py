"""Migration recovery: supervised dispatch with retry and backoff.

A :class:`MigrationSupervisor` owns the lifecycle that a single
:class:`~repro.core.base.MigrationManager` cannot: it launches attempts
from a factory, listens for their terminal outcome, and re-dispatches
aborted attempts (the abort left the VM running at the source, so
retrying is always safe). Failed attempts — the VM itself was lost —
are terminal and propagate immediately.

Retry timing depends on what the supervisor knows about the destination:

* with a health tracker attached, an abort whose destination is not UP
  is **parked** — no retry fires until the tracker reports the host back
  up (and through its post-recovery cooldown), at which point parked
  attempts launch immediately. No blind probe ever hits a dead host.
* after ``replan_after_aborts`` aborted attempts, an optional ``replan``
  callback may supply a factory pointing at a *different* destination
  (wired to :meth:`~repro.sched.MigrationPlanner.replan` by the control
  plane), so a VM is not chained to a flapping host forever.
* with neither (the PR-1 baseline), exponential backoff from
  :class:`RetryPolicy` applies.

The supervisor also bridges the fault stream to the managers it runs:
host crashes are routed to :meth:`MigrationManager.on_host_crash` and
VMD donor crashes to :meth:`MigrationManager.on_vmd_crash`, which decide
abort vs fail from the migration's phase (see the decision table in
``core/base.py``).
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import TYPE_CHECKING, Callable, Optional

from repro.core.base import MigrationManager, MigrationOutcome
from repro.faults.injector import HOST_LOSS, hosts_hit
from repro.faults.spec import FaultKind, FaultSpec
from repro.sim.kernel import Event

if TYPE_CHECKING:  # pragma: no cover - typing only
    from repro.cluster.world import World
    from repro.core.trigger import WatermarkTrigger

__all__ = ["MigrationSupervisor", "RetryPolicy"]


@dataclass(frozen=True)
class RetryPolicy:
    """Exponential backoff for re-dispatching aborted migrations."""

    max_retries: int = 3
    backoff_s: float = 2.0
    backoff_factor: float = 2.0
    backoff_cap_s: float = 60.0

    def __post_init__(self):
        if self.max_retries < 0:
            raise ValueError("max_retries must be non-negative")
        if self.backoff_s <= 0 or self.backoff_factor < 1:
            raise ValueError("backoff must be positive and non-shrinking")

    def delay(self, attempt: int) -> float:
        """Backoff before re-dispatching after failed attempt ``attempt``
        (0-based)."""
        return min(self.backoff_s * self.backoff_factor ** attempt,
                   self.backoff_cap_s)


class MigrationSupervisor:
    """Dispatches migrations, retries aborts, reacts to faults.

    ``factory`` passed to :meth:`dispatch` must build a *fresh* manager
    each call (managers are single-use); the supervisor registers it
    with the tick engine, starts it, and unregisters it when its tick
    work ends — the one launch path every migration takes (a
    :class:`~repro.cluster.scenarios.MigrationLab` dispatches through
    one with retries off). If the world has a fault
    injector attached, the supervisor subscribes automatically and
    forwards crash events to every in-flight manager. An optional
    :class:`~repro.core.trigger.WatermarkTrigger` is re-armed whenever
    an attempt ends without completing, so pressure-driven dispatch can
    re-select.
    """

    def __init__(self, world: "World",
                 policy: Optional[RetryPolicy] = None,
                 trigger: Optional["WatermarkTrigger"] = None,
                 health=None,
                 replan: Optional[Callable[[MigrationManager],
                                           Optional[Callable[
                                               [], MigrationManager]]]] = None,
                 replan_after_aborts: int = 2):
        self.world = world
        self.policy = policy or RetryPolicy()
        self.trigger = trigger
        #: health tracker (duck typed: ``is_up(host)``, ``subscribe(fn)``);
        #: None = health-blind backoff, the PR-1 behaviour
        self.health = health
        #: ``replan(mgr) -> factory | None`` — ask for a new destination
        self.replan = replan
        self.replan_after_aborts = replan_after_aborts
        #: terminal reports of every attempt, in completion order
        self.attempts = []
        #: retries waiting for their destination host to come back UP:
        #: host → list of (factory, next_attempt, final_event)
        self.parked: dict[str, list[tuple]] = {}
        self._active: list[MigrationManager] = []
        if world.faults is not None:
            world.faults.subscribe(self._on_fault)
        if health is not None:
            health.subscribe(self._on_health_change)

    def in_flight(self) -> list:
        """Reports of attempts still running (``outcome is None``) —
        live observers (the SLO monitor) attribute degradation windows
        to these before they land in :attr:`attempts`."""
        return [mgr.report for mgr in self._active]

    # -- dispatch -------------------------------------------------------------
    def dispatch(self, factory: Callable[[], MigrationManager]) -> Event:
        """Run ``factory()`` to completion, retrying aborts.

        Returns an event that fires with the *final* attempt's report
        (outcome COMPLETED, FAILED, or ABORTED once retries are
        exhausted). Earlier aborted attempts are re-marked RETRIED.
        """
        final = self.world.sim.event("supervised-migration")
        self._launch(factory, 0, final)
        return final

    def _launch(self, factory: Callable[[], MigrationManager],
                attempt: int, final: Event) -> None:
        mgr = factory()
        mgr.report.attempt = attempt
        engine = self.world.engine
        engine.add_participant(mgr, order=0)
        # A manager leaves the tick protocol when its tick work ends: at
        # cluster scale the finished managers otherwise accumulate in
        # the participant list and every tick pays their no-op phases.
        # That is its report's end for every engine but scatter-gather,
        # whose gather keeps ticking after the source is free.
        mgr.ticks_done.add_callback(
            lambda _ev: engine.remove_participant(mgr))
        self._active.append(mgr)
        mgr.done.add_callback(
            lambda ev: self._on_done(mgr, ev.value, factory, attempt, final))
        mgr.start()

    def _on_done(self, mgr: MigrationManager, report,
                 factory: Callable[[], MigrationManager],
                 attempt: int, final: Event) -> None:
        self._active.remove(mgr)
        self.attempts.append(report)
        retriable = (report.outcome is MigrationOutcome.ABORTED
                     and attempt < self.policy.max_retries)
        if report.outcome is not MigrationOutcome.COMPLETED \
                and self.trigger is not None:
            self.trigger.rearm()
        if not retriable:
            final.succeed(report)
            return
        report.outcome = MigrationOutcome.RETRIED
        if self.replan is not None \
                and attempt + 1 >= self.replan_after_aborts:
            rerouted = self.replan(mgr)
            if rerouted is not None:
                # fresh destination — launch right away (it was chosen
                # healthy; no reason to back off against it)
                self._launch(rerouted, attempt + 1, final)
                return
        if self.health is not None and not self.health.is_up(mgr.dst.name):
            # destination known-dead (or cooling off): no blind probe —
            # park until the tracker reports it UP again
            self.parked.setdefault(mgr.dst.name, []).append(
                (factory, attempt + 1, final))
            return
        self.world.sim.call_in(self.policy.delay(attempt),
                               self._launch, factory, attempt + 1, final)

    def _on_health_change(self, host: str, old, new) -> None:
        if getattr(new, "name", None) != "UP":
            return
        for factory, attempt, final in self.parked.pop(host, []):
            self._launch(factory, attempt, final)

    # -- fault routing --------------------------------------------------------
    def _on_fault(self, spec: FaultSpec, phase: str) -> None:
        # a rack or pod crash is both a host and a VMD donor crash
        if phase != "inject" or spec.kind not in (*HOST_LOSS,
                                                  FaultKind.VMD_CRASH):
            return
        for host in hosts_hit(spec, self.world.topology):
            for mgr in list(self._active):
                if spec.kind is not FaultKind.VMD_CRASH:
                    mgr.on_host_crash(host)
                if spec.kind is not FaultKind.HOST_CRASH:
                    mgr.on_vmd_crash(host)
