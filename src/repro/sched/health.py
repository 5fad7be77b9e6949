"""Host health: the control plane's view of what is safe to schedule on.

The fault injector manipulates *physical* state (NIC capacities, VM
liveness); this tracker folds its inject/revert stream into a per-host
health state machine the schedulers consult:

* ``UP`` — no active fault; eligible for placement and migration.
* ``DEGRADED`` — reachable but impaired (NIC degradation, partition
  membership); still placeable, but scored down by the planner.
* ``DOWN`` — an unrecovered crash or outage (host crash, NIC dark, rack
  crash, VMD donor crash on that host). Nothing is dispatched here.
* ``RECENTLY_FAILED`` — the fault reverted, but the host is inside a
  cooldown window. A host that just came back is disproportionately
  likely to fail again (flapping optics, crash loops), so placement
  keeps avoiding it until the cooldown expires.

State changes are pushed to subscribers (``fn(host, old, new)``), which
is how the :class:`~repro.faults.MigrationSupervisor` un-parks retries
the moment a destination is genuinely back, and how the planner re-pumps
its queue when capacity returns.
"""

from __future__ import annotations

import enum
from typing import TYPE_CHECKING, Callable

from repro.faults.injector import hosts_hit
from repro.faults.spec import FaultKind, FaultSpec

if TYPE_CHECKING:  # pragma: no cover - typing only
    from repro.cluster.world import World

__all__ = ["HostHealth", "HostHealthTracker"]


class HostHealth(enum.Enum):
    UP = "up"
    DEGRADED = "degraded"
    DOWN = "down"
    RECENTLY_FAILED = "recently-failed"


#: fault kinds that take a host (or every host in a rack/pod) fully down
_DOWN_KINDS = (FaultKind.HOST_CRASH, FaultKind.NIC_DOWN,
               FaultKind.VMD_CRASH, FaultKind.RACK_CRASH,
               FaultKind.POD_CRASH)


class HostHealthTracker:
    """Folds the fault stream into per-host UP/DEGRADED/DOWN state.

    Construct after :meth:`~repro.cluster.World.attach_faults` (the
    tracker subscribes to the injector). Hosts never named by a fault
    are ``UP`` forever, so the tracker needs no host registration.
    """

    def __init__(self, world: "World", cooldown_s: float = 30.0):
        if world.faults is None:
            raise RuntimeError("attach_faults() before building the "
                               "health tracker")
        if cooldown_s < 0:
            raise ValueError("cooldown must be non-negative")
        self.world = world
        self.cooldown_s = float(cooldown_s)
        #: host → keys of active faults that take it DOWN
        self._down: dict[str, set[tuple]] = {}
        #: host → keys of active faults that merely degrade it
        self._degraded: dict[str, set[tuple]] = {}
        #: host → cooldown epoch (stale expiry callbacks are ignored)
        self._epoch: dict[str, int] = {}
        #: hosts currently inside a post-revert cooldown
        self._cooling: set[str] = set()
        self._subs: list[Callable[[str, HostHealth, HostHealth], None]] = []
        world.faults.subscribe(self._on_fault)

    # -- queries -------------------------------------------------------------
    def state(self, host: str) -> HostHealth:
        if self._down.get(host):
            return HostHealth.DOWN
        if host in self._cooling:
            return HostHealth.RECENTLY_FAILED
        if self._degraded.get(host):
            return HostHealth.DEGRADED
        return HostHealth.UP

    def is_up(self, host: str) -> bool:
        return self.state(host) is HostHealth.UP

    def placeable(self, host: str) -> bool:
        """Eligible as a migration destination or for a new VM: not dead
        and not fresh out of a failure."""
        return self.state(host) in (HostHealth.UP, HostHealth.DEGRADED)

    def donor_placeable(self, host: str) -> bool:
        """Eligible to receive new VMD page placements (same rule; the
        separate name keeps the two call sites independently tunable)."""
        return self.placeable(host)

    def snapshot(self) -> dict[str, str]:
        """Hosts currently not UP, for logs (sorted, deterministic)."""
        hosts = set(self._down) | set(self._degraded) | self._cooling
        return {h: self.state(h).value for h in sorted(hosts)
                if self.state(h) is not HostHealth.UP}

    # -- subscription --------------------------------------------------------
    def subscribe(self,
                  fn: Callable[[str, HostHealth, HostHealth], None]) -> None:
        """Call ``fn(host, old, new)`` after every state change."""
        self._subs.append(fn)

    # -- fault folding -------------------------------------------------------
    def _on_fault(self, spec: FaultSpec, phase: str) -> None:
        key = (spec.kind.value, spec.target, spec.at)
        if spec.kind in _DOWN_KINDS:
            buckets = self._down
        elif spec.kind in (FaultKind.NIC_DEGRADED, FaultKind.PARTITION,
                           FaultKind.AZ_PARTITION):
            buckets = self._degraded
        else:
            return
        for host in hosts_hit(spec, self.world.topology):
            old = self.state(host)
            if phase == "inject":
                buckets.setdefault(host, set()).add(key)
                if buckets is self._down:
                    # a fresh failure supersedes any pending cooldown
                    self._cooling.discard(host)
                    self._epoch[host] = self._epoch.get(host, 0) + 1
            else:
                active = buckets.get(host)
                if active is not None:
                    active.discard(key)
                    if not active:
                        del buckets[host]
                if buckets is self._down and not self._down.get(host):
                    self._start_cooldown(host)
            self._emit(host, old)

    def _start_cooldown(self, host: str) -> None:
        if self.cooldown_s <= 0:
            return
        self._cooling.add(host)
        epoch = self._epoch.get(host, 0)
        self.world.sim.call_in(self.cooldown_s,
                               self._cooldown_expired, host, epoch)

    def _cooldown_expired(self, host: str, epoch: int) -> None:
        if self._epoch.get(host, 0) != epoch or host not in self._cooling:
            return  # the host failed again in the meantime
        old = self.state(host)
        self._cooling.discard(host)
        self._emit(host, old)

    def _emit(self, host: str, old: HostHealth) -> None:
        new = self.state(host)
        if new is old:
            return
        for fn in list(self._subs):
            fn(host, old, new)
