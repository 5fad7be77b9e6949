"""The host-manager view: one live row of cluster state per host.

Nova's scheduler never reads hypervisors directly — a host manager
maintains per-host state records that filters and weighers consume.
:class:`FleetHostView` is that layer for the sim: it keeps one
:class:`HostState` row per host — resident bytes from the memory
manager, *reserved* bytes from the planner's in-flight ledger
(migrations underway plus boots inside their boot delay), health from
the tracker, rack from the topology, live-VM and per-tenant counts —
so initial placement and rebalancing admission share one headroom
truth with the migration planner instead of re-deriving their own.

Rows are event-maintained, not rebuilt per decision. A row's topology
is read once; its live-VM tuple and tenant counts are recounted only
when the host's :attr:`~repro.host.host.Host.version` moved (a VM was
placed, removed, or died there); :meth:`FleetHostView.refresh`
rewrites the scalar fields in place. A row is valid until the next
refresh.

Drain lifecycle lives here too: :meth:`start_drain` marks a host as
evacuating (placement filters reject it and the planner stops choosing
it as a migration destination), :meth:`finish_drain` retires it.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import TYPE_CHECKING, Callable, Optional

from repro.vm.vm import VmState

if TYPE_CHECKING:  # pragma: no cover - typing only
    from repro.cluster.world import World
    from repro.sched.planner import MigrationPlanner

__all__ = ["FleetHostView", "HostState"]


@dataclass
class HostState:
    """One host as the placement pipeline sees it (a live row: the
    view rewrites it in place at each refresh)."""

    name: str
    rack: Optional[str]
    usable_bytes: float
    #: bytes currently resident (the memory manager's truth)
    resident_bytes: float
    #: bytes in-flight work will claim here (migrations + pending boots)
    reserved_bytes: float
    #: health tracker state name ("UP", "DEGRADED", ...); "UP" when
    #: the scenario runs without a tracker
    health: str
    #: migrations this host participates in right now (src or dst)
    inflight: int
    draining: bool
    retired: bool
    #: live (non-terminated) VMs resident on the host
    vms: tuple = ()
    #: live VMs per tenant on this host (anti-affinity input)
    tenants: dict = field(default_factory=dict)
    #: live VMs across the host's whole rack (spread input)
    rack_load: int = 0
    #: enclosing fault domains (None on flat topologies / outside hosts)
    pod: Optional[str] = None
    az: Optional[str] = None
    #: live VMs across the host's pod / AZ (deep-spread inputs)
    pod_load: int = 0
    az_load: int = 0

    @property
    def free_bytes(self) -> float:
        """Headroom after charging everything already headed here."""
        return self.usable_bytes - self.resident_bytes \
            - self.reserved_bytes

    @property
    def usage_fraction(self) -> float:
        """Projected usage (resident + reserved) as a fraction of
        usable memory — the watermark the rebalancer compares."""
        if self.usable_bytes <= 0:
            return 1.0
        return (self.resident_bytes + self.reserved_bytes) \
            / self.usable_bytes


class FleetHostView:
    """Keeps one :class:`HostState` row per host of ``world``, current
    with the planner ledger at each :meth:`refresh`.

    ``tenant_of`` maps a VM name to its tenant (None for VMs the fleet
    does not own — filler VMs, pre-placed scenario fixtures); a VM's
    tenant must be known by the time it is placed, or its host marked
    changed. ``exclude`` names hosts that are never placement
    candidates (VMD donor machines, client hosts).
    """

    def __init__(self, world: "World", planner: "MigrationPlanner",
                 health=None,
                 tenant_of: Optional[Callable[[str], Optional[str]]] = None,
                 exclude: tuple = ()):
        self.world = world
        self.planner = planner
        self.health = health
        self.tenant_of = tenant_of or (lambda vm_name: None)
        self.exclude = frozenset(exclude)
        self.draining: set[str] = set()
        self.retired: set[str] = set()
        #: name-sorted rows, built by the first refresh
        self._rows: dict[str, HostState] = {}
        #: the Host.version each row's VM tuple and tenants reflect
        self._versions: dict[str, int] = {}
        #: live VMs per rack / pod / AZ, kept by row recounts
        self._loads: tuple[dict, dict, dict] = ({}, {}, {})
        #: what the rows were built against (hosts seen, tenant map)
        self._built_for: tuple = (-1, None)

    # -- drain lifecycle ------------------------------------------------------
    def start_drain(self, host: str) -> None:
        """Mark ``host`` as evacuating: no new boots land on it and the
        planner stops scoring it as a migration destination."""
        self.draining.add(host)
        self.planner.exclude_hosts.add(host)

    def finish_drain(self, host: str, retire: bool = True) -> None:
        """Drain complete: retire the host (default) or return it to
        service (an aborted decommission)."""
        self.draining.discard(host)
        if retire:
            self.retired.add(host)
        else:
            self.planner.exclude_hosts.discard(host)

    def is_available(self, host: str) -> bool:
        return host not in self.exclude and host not in self.draining \
            and host not in self.retired

    # -- rows -----------------------------------------------------------------
    def refresh(self) -> dict[str, HostState]:
        """The current, deterministic (name-sorted) cluster state."""
        hosts = self.world.hosts
        if self._built_for != (len(hosts), self.tenant_of):
            self._build_rows()
        versions = self._versions
        planner = self.planner
        reserved_on = planner.reserved_on
        inflight = planner._inflight
        health = self.health
        draining = self.draining
        retired = self.retired
        recounted = False
        for name, row in self._rows.items():
            host = hosts[name]
            if host.version != versions[name]:
                self._recount(row, host)
                recounted = True
            memory = host.memory
            row.usable_bytes = memory.usable_bytes()
            row.resident_bytes = memory.total_resident_bytes()
            row.reserved_bytes = reserved_on(name)
            # ``_name_`` is the member's name without Enum's descriptor
            row.health = "UP" if health is None \
                else health.state(name)._name_
            row.inflight = inflight.get(name, 0)
            row.draining = name in draining
            row.retired = name in retired
        if recounted:
            racks, pods, azs = self._loads
            for row in self._rows.values():
                if row.rack is not None:
                    row.rack_load = racks.get(row.rack, 0)
                if row.pod is not None:
                    row.pod_load = pods.get(row.pod, 0)
                if row.az is not None:
                    row.az_load = azs.get(row.az, 0)
        return dict(self._rows)

    def _build_rows(self) -> None:
        """One blank row per candidate host, topology read once; the
        refresh that called this recounts every row."""
        world = self.world
        topo = world.topology
        self._rows = {}
        self._versions = {}
        self._loads = ({}, {}, {})
        for name in sorted(world.hosts):
            if name in self.exclude:
                continue
            self._rows[name] = HostState(
                name=name,
                rack=topo.rack_of(name) if topo is not None else None,
                pod=topo.pod_of(name) if topo is not None else None,
                az=topo.az_of(name) if topo is not None else None,
                usable_bytes=0.0, resident_bytes=0.0, reserved_bytes=0.0,
                health="UP", inflight=0, draining=False, retired=False)
            self._versions[name] = -1
        self._built_for = (len(world.hosts), self.tenant_of)

    def _recount(self, row: HostState, host) -> None:
        """Rebuild ``row``'s live-VM tuple and tenant counts from
        ``host`` and move its fault domains' loads by the difference."""
        tenant_of = self.tenant_of
        vms = host.vms
        live = []
        tenants: dict[str, int] = {}
        for vm_name in sorted(vms):
            if vms[vm_name].state is VmState.TERMINATED:
                continue
            live.append(vm_name)
            tenant = tenant_of(vm_name)
            if tenant is not None:
                tenants[tenant] = tenants.get(tenant, 0) + 1
        delta = len(live) - len(row.vms)
        row.vms = tuple(live)
        row.tenants = tenants
        self._versions[row.name] = host.version
        if delta:
            for loads, domain in zip(self._loads,
                                     (row.rack, row.pod, row.az)):
                if domain is not None:
                    loads[domain] = loads.get(domain, 0) + delta

    def placeable_states(self) -> list[HostState]:
        """Refreshed states of hosts placement may consider, sorted by
        name (the pipeline's deterministic candidate order)."""
        return [s for s in self.refresh().values()
                if not s.draining and not s.retired]
