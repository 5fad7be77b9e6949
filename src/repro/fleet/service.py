"""The fleet scheduler service: boots, retries, departures, drains.

:class:`FleetScheduler` is the nova-conductor analogue for the sim. It
consumes a :class:`~repro.fleet.demand.VmSpec` stream and owns the full
VM lifecycle against a wired :class:`~repro.cluster.World`:

* **boot** — :meth:`submit` runs the filter/weigher pipeline over a
  fresh host-view snapshot, *reserves* the chosen host's memory in the
  planner's boot ledger (so migrations admitted during the boot delay
  see the claim — the shared-headroom satellite), and completes the
  boot after ``boot_delay_s``;
* **retry/reject** — a spec with no valid host backs off exponentially
  and re-enters the pipeline, up to ``MAX_BOOT_ATTEMPTS``; after that
  it lands on the rejected list (the scenario's overload signal);
* **depart** — each booted VM schedules its own departure at
  boot-time + lifetime: terminate, free memory, unregister from the
  host, retire the VMD namespace, and cancel any queued migration —
  sustained churn leaves no dead tick participants behind;
* **decommission-drain** — :meth:`decommission` marks a host draining
  (no new placements, planner stops choosing it) and evacuates its
  residents through the planner with the move cooldown bypassed,
  re-checking periodically until the host is empty, then retires it;
* **faults** — subscribed to the injector: a host (or rack) crash
  during a drain — or any other time — fails the pending boots
  targeting the dead hosts back into the retry queue instead of
  booting VMs onto a corpse;
* **clone boots** — with a :class:`~repro.clone.CloneManager` attached,
  a spec whose tenant already runs a geometry-matching VM boots via
  :meth:`boot_via_clone` instead of the full-copy ``boot_fn``: the
  placement pipeline and boot ledger work exactly as before, but the
  VM forks from the parent's shared memory image and hydrates
  post-copy style — the flash-crowd fast path.

Every decision appends one line to :attr:`placement_log` and emits a
``fleet``-category trace event, so two same-seed runs produce
byte-identical logs and traces.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import TYPE_CHECKING, Callable, Optional

from repro.cluster.setup import preload_dataset
from repro.faults.injector import HOST_LOSS, hosts_hit
from repro.sim.periodic import PeriodicTask
from repro.vm.vm import VmState

if TYPE_CHECKING:  # pragma: no cover - typing only
    from repro.cluster.world import World
    from repro.fleet.demand import VmSpec
    from repro.fleet.hostview import FleetHostView
    from repro.fleet.pipeline import PlacementPipeline
    from repro.sched.planner import MigrationPlanner

__all__ = ["FleetScheduler", "FleetServiceConfig", "PendingBoot"]

#: first retry delay after a failed placement
RETRY_BACKOFF_S = 1.0
#: backoff multiplier per further attempt
RETRY_BACKOFF_FACTOR = 2.0
#: backoff ceiling
RETRY_BACKOFF_CAP_S = 8.0
#: placement attempts before a spec is rejected outright
MAX_BOOT_ATTEMPTS = 4
#: how often a draining host re-checks for stragglers
DRAIN_CHECK_INTERVAL_S = 1.0
#: how long a departure waits to re-check a VM that is mid-migration
DEPART_RECHECK_S = 1.0


@dataclass(frozen=True)
class FleetServiceConfig:
    """Knobs for the boot machinery."""

    #: image fetch + guest boot time; the window the boot ledger covers
    boot_delay_s: float = 0.5
    #: tenants eligible for clone boots (None = every tenant with a
    #: geometry-matching parent)
    clone_tenants: Optional[tuple] = None

    def __post_init__(self):
        if self.boot_delay_s < 0:
            raise ValueError("boot_delay_s must be non-negative")


@dataclass
class PendingBoot:
    """A boot admitted by the pipeline but still inside its delay."""

    spec: "VmSpec"
    host: str
    attempt: int
    #: open async trace span for this boot (0 when tracing is off)
    span: int = 0


class FleetScheduler:
    """Boot placement + lifecycle service over one cluster world."""

    def __init__(self, world: "World", planner: "MigrationPlanner",
                 view: "FleetHostView", pipeline: "PlacementPipeline",
                 config: Optional[FleetServiceConfig] = None,
                 boot_fn: Optional[Callable] = None,
                 clone=None):
        self.world = world
        self.sim = world.sim
        self.planner = planner
        self.view = view
        self.pipeline = pipeline
        self.config = config or FleetServiceConfig()
        #: ``boot_fn(spec, host_name)`` materializes the VM; the default
        #: builds VM + namespace + placement + preloaded dataset
        self.boot_fn = boot_fn or self._default_boot
        #: optional :class:`~repro.clone.CloneManager`: tenants with a
        #: running geometry-matching VM boot via memory-image forks
        self.clone = clone
        #: scenario-placed VMs offered as clone parents (name list)
        self.clone_parents: list[str] = []
        self.tracer = world.tracer
        #: boots inside their boot delay, by VM name
        self.pending: dict[str, PendingBoot] = {}
        #: fleet-owned VMs currently alive, by VM name
        self.running: dict[str, "VmSpec"] = {}
        #: tenant of every VM the fleet ever booted (hostview input)
        self.tenant_by_vm: dict[str, str] = {}
        #: specs that exhausted their boot attempts
        self.rejected: list[str] = []
        #: deterministic, append-only decision log
        self.placement_log: list[str] = []
        self.counters = {
            "submitted": 0, "booted": 0, "retried": 0, "rejected": 0,
            "departed": 0, "drained_hosts": 0, "crash_requeued": 0,
            "cloned": 0,
        }
        self._drain_tasks: dict[str, PeriodicTask] = {}
        self._drain_spans: dict[str, int] = {}
        if world.faults is not None:
            world.faults.subscribe(self._on_fault)
        if self.clone is not None:
            self.clone.on_replica_failed = self._on_replica_failed

    # -- demand intake --------------------------------------------------------
    def run_demand(self, specs: list) -> None:
        """Schedule every spec's :meth:`submit` at its arrival time."""
        for spec in specs:
            self.sim.call_at(spec.arrival_s, self._arrive, spec)

    def _arrive(self, spec: "VmSpec") -> None:
        if self.tracer.enabled:
            self.tracer.instant(
                "fleet", "arrival", cat="fleet",
                args={"vm": spec.name, "tenant": spec.tenant,
                      "workload": spec.workload,
                      "memory_bytes": float(spec.memory_bytes)})
        self.submit(spec)

    # -- boot path ------------------------------------------------------------
    def submit(self, spec: "VmSpec", attempt: int = 1) -> Optional[str]:
        """Place ``spec`` through the pipeline; returns the chosen host
        (boot completes after the boot delay) or None on retry/reject."""
        if attempt == 1:
            self.counters["submitted"] += 1
        decision = self.pipeline.select(self.view.refresh().placeable(),
                                        spec)
        metrics = self.world.metrics
        if metrics.enabled:
            metrics.inc("fleet.submits")
            for fname, n in sorted(decision.rejected.items()):
                if n:
                    metrics.inc(f"fleet.reject_by_filter.{fname}", n)
        if decision.host is None:
            self._log(f"defer {spec.name}: no-valid-host "
                      f"attempt={attempt}")
            self._retry(spec, attempt, "no-valid-host")
            return None
        host = decision.host
        # charge the boot ledger NOW: migrations admitted during the
        # boot delay must see this claim (shared headroom truth)
        self.planner.reserve_boot(host, spec.memory_bytes)
        pb = PendingBoot(spec=spec, host=host, attempt=attempt)
        if self.tracer.enabled:
            pb.span = self.tracer.async_begin(
                "fleet", "boot", cat="fleet",
                args={"vm": spec.name, "tenant": spec.tenant,
                      "host": host, "attempt": attempt,
                      "memory_bytes": float(spec.memory_bytes)})
        self.pending[spec.name] = pb
        self._log(f"place {spec.name} -> {host} attempt={attempt}")
        self.sim.call_in(self.config.boot_delay_s,
                         self._complete_boot, spec.name)
        return host

    def _complete_boot(self, name: str) -> None:
        pb = self.pending.pop(name, None)
        if pb is None:
            return  # cancelled (its target host died mid-delay)
        spec = pb.spec
        image = self._clone_image_for(spec)
        # the tenant is known before the VM lands, so the placement
        # itself is the host-view event that counts it
        self.tenant_by_vm[name] = spec.tenant
        if image is not None:
            self.boot_via_clone(spec, pb.host, image)
        else:
            self.boot_fn(spec, pb.host)
        # the VM's pages are resident/registered now; retire the claim
        self.planner.release_boot(pb.host, spec.memory_bytes)
        self.running[name] = spec
        self.counters["booted"] += 1
        metrics = self.world.metrics
        if metrics.enabled:
            metrics.inc("fleet.booted")
            metrics.histogram("fleet.boot_latency_s").observe(
                self.sim.now - spec.arrival_s)
        self._log(f"boot {name} on {pb.host}")
        if pb.span:
            self.tracer.async_end(pb.span)
        if spec.lifetime_s is not None:
            self.sim.call_in(spec.lifetime_s, self.depart, name)

    # -- clone boots ----------------------------------------------------------
    def register_clone_parent(self, name: str, tenant: str) -> None:
        """Offer a scenario-placed VM as a clone parent for ``tenant``
        (fleet-booted VMs are considered automatically)."""
        self.clone_parents.append(name)
        self.tenant_by_vm[name] = tenant
        vm = self.world.vms.get(name)
        if vm is not None and vm.host in self.world.hosts:
            # already placed: its host's row must recount tenants
            self.world.hosts[vm.host].mark_changed()

    def _clone_image_for(self, spec: "VmSpec"):
        """A usable parent image for ``spec``, capturing one on first
        use; None when clone provisioning does not apply."""
        if self.clone is None:
            return None
        allowed = self.config.clone_tenants
        if allowed is not None and spec.tenant not in allowed:
            return None
        # an existing image beats a fresh capture — even one whose
        # parent already departed (the image outlives the parent)
        for parent in sorted(self.clone.images):
            image = self.clone.image_for(parent)
            if image is None:
                continue
            if self.tenant_by_vm.get(parent) != spec.tenant:
                continue
            if float(image.n_pages) * image.page_size \
                    != float(spec.memory_bytes):
                continue
            parent_vm = self.world.vms.get(parent)
            parent_alive = (parent_vm is not None
                            and parent_vm.state is not VmState.TERMINATED)
            if image.ready or parent_alive:
                return image
        for parent in sorted(set(self.clone_parents) | set(self.running)):
            if self.tenant_by_vm.get(parent) != spec.tenant:
                continue
            vm = self.world.vms.get(parent)
            if vm is None or vm.state is VmState.TERMINATED \
                    or vm.migrating:
                continue
            if float(vm.memory_bytes) != float(spec.memory_bytes):
                continue
            return self.clone.snapshot(parent)
        return None

    def boot_via_clone(self, spec: "VmSpec", host_name: str,
                       image) -> None:
        """Fork ``spec`` from a parent image instead of a full-copy
        boot; same ledger, pipeline, and lifecycle as any other boot."""
        self.clone.boot_replica(spec.name, host_name, image,
                                reservation_bytes=spec.memory_bytes)
        self.counters["cloned"] += 1
        self._log(f"clone {spec.name} <- {image.parent} on {host_name}")
        if self.tracer.enabled:
            self.tracer.instant(
                "fleet", "boot-clone", cat="fleet",
                args={"vm": spec.name, "parent": image.parent,
                      "host": host_name, "image": image.name})

    def _on_replica_failed(self, name: str, reason: str) -> None:
        """The clone manager failed a replica (fault matrix): it is gone
        for good, like any crash-killed fleet VM."""
        if self.running.pop(name, None) is not None:
            self._log(f"lost {name}: {reason}")

    def _default_boot(self, spec: "VmSpec", host_name: str) -> None:
        world = self.world
        vm = world.boot_vm(spec.name, spec.memory_bytes, host_name)
        preload_dataset(vm, world.manager_of(host_name), spec.memory_bytes,
                        dirty_resident=(spec.workload == "oltp"))

    def _retry(self, spec: "VmSpec", attempt: int, reason: str) -> None:
        if attempt >= MAX_BOOT_ATTEMPTS:
            self.rejected.append(spec.name)
            self.counters["rejected"] += 1
            if self.world.metrics.enabled:
                self.world.metrics.inc("fleet.rejected")
            self._log(f"reject {spec.name}: {reason} "
                      f"after {attempt} attempts")
            if self.tracer.enabled:
                self.tracer.instant(
                    "fleet", "boot-reject", cat="fleet",
                    args={"vm": spec.name, "reason": reason,
                          "attempts": attempt})
            return
        delay = min(RETRY_BACKOFF_CAP_S,
                    RETRY_BACKOFF_S
                    * RETRY_BACKOFF_FACTOR ** (attempt - 1))
        self.counters["retried"] += 1
        if self.tracer.enabled:
            self.tracer.instant(
                "fleet", "boot-retry", cat="fleet",
                args={"vm": spec.name, "reason": reason,
                      "attempt": attempt, "delay_s": delay})
        self.sim.call_in(delay, self.submit, spec, attempt + 1)

    # -- departures -----------------------------------------------------------
    def depart(self, name: str) -> None:
        """Tenant tear-down: the VM leaves the cluster for good."""
        spec = self.running.get(name)
        if spec is None:
            return  # already gone (fault-killed, double departure)
        vm = self.world.vms.get(name)
        if vm is None or vm.state is VmState.TERMINATED:
            self.running.pop(name, None)
            return  # a fault beat the tenant to it
        if vm.migrating:
            # mid-migration: let it land, then tear down
            self.sim.call_in(DEPART_RECHECK_S,
                             self.depart, name)
            return
        host = self.world.hosts[vm.host]
        self.planner.cancel(name)
        host.terminate_vm(name)
        host.release_vm(name)
        del self.world.vms[name]
        if self.clone is not None and self.clone.owns(name):
            self.clone.teardown(name)
        elif self.world.vmd is not None \
                and name in self.world.vmd.namespaces:
            self.world.vmd.release_namespace(name)
        if self.clone is not None:
            # an unfinished snapshot stream dies with its parent
            self.clone.on_parent_departed(name)
        del self.running[name]
        self.counters["departed"] += 1
        self._log(f"depart {name} from {host.name}")
        if self.tracer.enabled:
            self.tracer.instant(
                "fleet", "depart", cat="fleet",
                args={"vm": name, "host": host.name,
                      "tenant": spec.tenant})

    # -- decommission-drain ---------------------------------------------------
    def decommission(self, host_name: str) -> None:
        """Drain ``host_name`` and retire it once empty.

        Pending boots targeting the host are *not* cancelled — they
        complete and are then evacuated like any other resident (the
        host is leaving service, not dead).
        """
        if host_name in self._drain_tasks:
            return
        self.view.start_drain(host_name)
        self._log(f"drain {host_name}: start")
        if self.tracer.enabled:
            self._drain_spans[host_name] = self.tracer.async_begin(
                "fleet", "drain", cat="fleet",
                args={"host": host_name})
        self._drain_tasks[host_name] = PeriodicTask(
            self.sim, DRAIN_CHECK_INTERVAL_S,
            lambda now: self._check_drain(host_name),
            start_at=self.sim.now)

    def _check_drain(self, host_name: str) -> None:
        host = self.world.hosts[host_name]
        live = [n for n in sorted(host.vms)
                if host.vms[n].state is not VmState.TERMINATED]
        if not live:
            task = self._drain_tasks.pop(host_name)
            task.cancel()
            self.view.finish_drain(host_name)
            self.counters["drained_hosts"] += 1
            self._log(f"drain {host_name}: complete")
            span = self._drain_spans.pop(host_name, 0)
            if span:
                self.tracer.async_end(span)
            return
        for name in live:
            if host.vms[name].migrating:
                continue
            self.planner.request(name, host_name, ignore_cooldown=True)

    # -- fault reaction (satellite: crash during drain) -----------------------
    def _on_fault(self, spec, phase: str) -> None:
        if phase != "inject":
            return
        dead = (set(hosts_hit(spec, self.world.topology))
                if spec.kind in HOST_LOSS else set())
        if not dead:
            return
        # fail pending boots targeting the dead hosts back into retry
        for name in sorted(self.pending):
            pb = self.pending[name]
            if pb.host not in dead:
                continue
            del self.pending[name]
            self.planner.release_boot(pb.host, pb.spec.memory_bytes)
            if pb.span:
                self.tracer.async_end(pb.span)
            self.counters["crash_requeued"] += 1
            self._log(f"requeue {name}: target {pb.host} crashed")
            if self.tracer.enabled:
                self.tracer.instant(
                    "fleet", "boot-requeue", cat="fleet",
                    args={"vm": name, "host": pb.host,
                          "kind": spec.kind.value})
            self._retry(pb.spec, pb.attempt, "target-crashed")
        # fleet-owned VMs the crash killed are gone for good
        for name in sorted(self.running):
            vm = self.world.vms.get(name)
            if vm is not None and vm.host in dead \
                    and vm.state is VmState.TERMINATED:
                del self.running[name]

    # -- reporting ------------------------------------------------------------
    def _log(self, message: str) -> None:
        self.placement_log.append(f"{message} @{self.world.now:g}s")

    def describe(self) -> str:
        c = self.counters
        return (f"fleet: {c['submitted']} submitted, {c['booted']} booted, "
                f"{c['retried']} retried, {c['rejected']} rejected, "
                f"{c['departed']} departed, "
                f"{c['drained_hosts']} hosts drained")
