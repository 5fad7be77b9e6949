"""The host-manager view: cluster state as host columns, kept by events.

Nova's scheduler never reads hypervisors directly — a host manager
maintains per-host state records that filters and weighers consume.
:class:`FleetHostView` is that layer for the sim. It keeps one NumPy
column per :class:`HostState` field over the name-sorted candidate
hosts — resident bytes from the memory manager, *reserved* bytes from
the planner's in-flight ledger (migrations underway plus boots inside
their boot delay), health from the tracker, rack/pod/AZ from the
topology, live-VM and per-tenant counts — so initial placement and
rebalancing admission share one headroom truth with the migration
planner instead of re-deriving their own.

Columns are event-maintained, not rebuilt per decision. Topology and
usable memory are read once. A host's live-VM tuple and tenant counts
are recounted only when its :attr:`~repro.host.host.Host.version`
moved (a VM was placed, removed, or died there), and the recount moves
the per-tenant and per-domain load arrays by the difference. Resident
bytes are one O(1) read per host. The sparse fields are rewritten from
their sources in O(changed) work: reserved bytes only on hosts that
hold claims, in-flight counts from the planner, health only on hosts
that are not UP, drain and retire flags from the view's own sets.

:meth:`FleetHostView.refresh` returns a :class:`HostTable`: the columns
the placement pipeline filters and weighs whole, and a name →
:class:`HostState` mapping for the rebalancer and reports. A table is
valid until the next refresh.

Drain lifecycle lives here too: :meth:`start_drain` marks a host as
evacuating (placement filters reject it and the planner stops choosing
it as a migration destination), :meth:`finish_drain` retires it.
"""

from __future__ import annotations

from collections.abc import Mapping
from dataclasses import dataclass, field
from itertools import compress, count
from operator import attrgetter, ne
from typing import TYPE_CHECKING, Callable, Optional

import numpy as np

from repro.sched.health import HostHealth
from repro.vm.vm import VmState

if TYPE_CHECKING:  # pragma: no cover - typing only
    from repro.cluster.world import World
    from repro.sched.planner import MigrationPlanner

__all__ = ["FleetHostView", "HEALTH_STATES", "HostState", "HostTable"]

#: health state names; the ``health`` column holds indices into this
HEALTH_STATES = tuple(h.name for h in HostHealth)
#: health tracker snapshot value -> health code
_HEALTH_CODE = {h.value: code for code, h in enumerate(HostHealth)}


@dataclass
class HostState:
    """One host as a row: what a :class:`HostTable` yields per name, and
    what :meth:`HostTable.from_states` builds a table from."""

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


def _objects(values) -> np.ndarray:
    """A 1-d object array holding ``values`` as they are (tuples and
    dicts stay single elements)."""
    out = np.empty(len(values), dtype=object)
    for i, v in enumerate(values):
        out[i] = v
    return out


#: the per-host columns, in :class:`HostTable` field order
_COLUMNS = ("names", "racks", "pods", "azs", "usable", "resident",
            "reserved", "health", "inflight", "draining", "retired",
            "rack_load", "pod_load", "az_load", "vms", "tenants")


@dataclass(eq=False)
class HostTable(Mapping):
    """Hosts as columns, sorted by name: one array per :class:`HostState`
    field, plus a live-VM count array per tenant.

    Filters and weighers read the columns whole. The table is also a
    read-only ``name -> HostState`` mapping; its rows are built on first
    use, at most once per table.
    """

    names: np.ndarray      # object: host names, sorted
    racks: np.ndarray      # object: rack name or None
    pods: np.ndarray       # object: pod name or None
    azs: np.ndarray        # object: AZ name or None
    usable: np.ndarray     # float64 bytes
    resident: np.ndarray   # float64 bytes
    reserved: np.ndarray   # float64 bytes
    health: np.ndarray     # int8: index into HEALTH_STATES
    inflight: np.ndarray   # int64
    draining: np.ndarray   # bool
    retired: np.ndarray    # bool
    rack_load: np.ndarray  # int64: live VMs rack-wide
    pod_load: np.ndarray   # int64
    az_load: np.ndarray    # int64
    vms: np.ndarray        # object: tuple of live VM names
    tenants: np.ndarray    # object: {tenant: live VMs}
    #: tenant -> live VMs of that tenant per host
    tenant_cols: dict = field(default_factory=dict)
    _rows: Optional[dict] = field(default=None, init=False, repr=False)

    @classmethod
    def from_states(cls, states) -> "HostTable":
        """A table of ``states`` (any order; the table sorts by name)."""
        rows = sorted(states, key=attrgetter("name"))
        tenants = sorted({t for s in rows for t in s.tenants})
        return cls(
            names=_objects([s.name for s in rows]),
            racks=_objects([s.rack for s in rows]),
            pods=_objects([s.pod for s in rows]),
            azs=_objects([s.az for s in rows]),
            usable=np.array([s.usable_bytes for s in rows], dtype=float),
            resident=np.array([s.resident_bytes for s in rows], dtype=float),
            reserved=np.array([s.reserved_bytes for s in rows], dtype=float),
            health=np.array([HEALTH_STATES.index(s.health) for s in rows],
                            dtype=np.int8),
            inflight=np.array([s.inflight for s in rows], dtype=np.int64),
            draining=np.array([s.draining for s in rows], dtype=bool),
            retired=np.array([s.retired for s in rows], dtype=bool),
            rack_load=np.array([s.rack_load for s in rows], dtype=np.int64),
            pod_load=np.array([s.pod_load for s in rows], dtype=np.int64),
            az_load=np.array([s.az_load for s in rows], dtype=np.int64),
            vms=_objects([tuple(s.vms) for s in rows]),
            tenants=_objects([dict(s.tenants) for s in rows]),
            tenant_cols={t: np.array([s.tenants.get(t, 0) for s in rows],
                                     dtype=np.int64) for t in tenants})

    # -- columns ----------------------------------------------------------------
    @property
    def free(self) -> np.ndarray:
        """Headroom per host after every claim (``HostState.free_bytes``)."""
        return self.usable - self.resident - self.reserved

    def tenant_count(self, tenant) -> np.ndarray:
        """Live VMs of ``tenant`` per host (zeros for an unseen tenant)."""
        col = self.tenant_cols.get(tenant)
        if col is None:
            return np.zeros(len(self.names), dtype=np.int64)
        return col

    def take(self, idx: np.ndarray) -> "HostTable":
        """The sub-table of rows ``idx`` (ascending positions)."""
        cols = {c: getattr(self, c)[idx] for c in _COLUMNS}
        return HostTable(**cols, tenant_cols={
            t: col[idx] for t, col in self.tenant_cols.items()})

    def placeable(self) -> "HostTable":
        """The hosts placement may consider: neither draining nor
        retired."""
        out = self.draining | self.retired
        if not out.any():
            return self
        return self.take(np.flatnonzero(~out))

    # -- rows -------------------------------------------------------------------
    def rows(self) -> dict[str, HostState]:
        """Every host as a :class:`HostState`, in name order."""
        if self._rows is None:
            health = [HEALTH_STATES[c] for c in self.health.tolist()]
            # positional in HostState field order
            self._rows = {args[0]: HostState(*args) for args in zip(
                self.names.tolist(), self.racks.tolist(),
                self.usable.tolist(), self.resident.tolist(),
                self.reserved.tolist(), health, self.inflight.tolist(),
                self.draining.tolist(), self.retired.tolist(),
                self.vms.tolist(), self.tenants.tolist(),
                self.rack_load.tolist(), self.pods.tolist(),
                self.azs.tolist(), self.pod_load.tolist(),
                self.az_load.tolist())}
        return self._rows

    def __getitem__(self, name: str) -> HostState:
        return self.rows()[name]

    def __iter__(self):
        return iter(self.names.tolist())

    def __len__(self) -> int:
        return len(self.names)

    def values(self):
        return self.rows().values()

    def items(self):
        return self.rows().items()


class FleetHostView:
    """Keeps the host columns of ``world``, current with the planner
    ledger at each :meth:`refresh`.

    ``tenant_of`` maps a VM name to its tenant (None for VMs the fleet
    does not own — filler VMs, pre-placed scenario fixtures); a VM's
    tenant must be known by the time it is placed, or its host marked
    changed. Every host of ``world.hosts`` is a candidate (VMD donors
    and client hosts run no memory manager, so they are not among
    them).
    """

    def __init__(self, world: "World", planner: "MigrationPlanner",
                 health=None,
                 tenant_of: Optional[Callable[[str], Optional[str]]] = None):
        self.world = world
        self.planner = planner
        self.health = health
        self.tenant_of = tenant_of or (lambda vm_name: None)
        self.draining: set[str] = set()
        self.retired: set[str] = set()
        #: what the columns were built against (hosts seen, tenant map)
        self._built_for: tuple = (-1, None)
        #: managers whose resident total moved since the last refresh
        #: (each flags itself): the resident rows to reread
        self._moved: set = set()

    # -- drain lifecycle ------------------------------------------------------
    def start_drain(self, host: str) -> None:
        """Mark ``host`` as evacuating: no new boots land on it and the
        planner stops scoring it as a migration destination."""
        self.draining.add(host)
        self.planner.draining.add(host)

    def finish_drain(self, host: str, retire: bool = True) -> None:
        """Drain complete: retire the host (default) or return it to
        service (an aborted decommission)."""
        self.draining.discard(host)
        if retire:
            self.retired.add(host)
        else:
            self.planner.draining.discard(host)

    # -- columns --------------------------------------------------------------
    def refresh(self) -> HostTable:
        """The current, deterministic (name-sorted) cluster state."""
        if self._built_for != (len(self.world.hosts), self.tenant_of):
            self._build()
        versions = [host.version for host in self._hosts]
        if versions != self._versions:
            for i in compress(count(), map(ne, versions, self._versions)):
                self._recount(i)
            self._versions = versions
            for col, (loads, ids) in zip(self._domain_load_cols,
                                         self._domain_loads):
                col[:] = loads[ids]
        moved = self._moved
        if moved:
            row = self._row_of
            for m in moved:
                self._resident[row[m]] = m.total_resident_bytes()
            moved.clear()
        planner = self.planner
        reserved_on = planner.reserved_on
        claimed = planner.migration_claims().keys() \
            | planner.boot_claims().keys()
        self._rewrite("reserved", ((h, reserved_on(h)) for h in claimed))
        self._rewrite("inflight", planner.inflight_counts().items())
        if self.health is not None:
            self._rewrite("health", (
                (h, _HEALTH_CODE[v])
                for h, v in self.health.snapshot().items()))
        self._rewrite("draining", ((h, True) for h in self.draining))
        self._rewrite("retired", ((h, True) for h in self.retired))
        racks, pods, azs = self._domains
        rack_load, pod_load, az_load = self._domain_load_cols
        return HostTable(
            names=self._names, racks=racks, pods=pods, azs=azs,
            usable=self._usable, resident=self._resident,
            rack_load=rack_load, pod_load=pod_load, az_load=az_load,
            vms=self._vms, tenants=self._tenants,
            tenant_cols=self._tenant_cols, **self._sparse)

    def _rewrite(self, name: str, values) -> None:
        """Rewrite sparse column ``name``: clear the rows written last
        time, then write the ``(host, value)`` pairs of ``values``."""
        col = self._sparse[name]
        for i in self._written[name]:
            col[i] = 0
        index = self._index
        written = []
        for host, value in values:
            i = index.get(host)
            if i is not None:
                col[i] = value
                written.append(i)
        self._written[name] = written

    def _build(self) -> None:
        """Blank columns for the candidate hosts, topology and usable
        memory read once; the refresh that called this recounts every
        host."""
        world = self.world
        topo = world.topology
        names = sorted(world.hosts)
        n = len(names)
        self._names = _objects(names)
        self._index = {h: i for i, h in enumerate(names)}
        self._hosts = [world.hosts[h] for h in names]
        managers = [host.memory for host in self._hosts]
        self._versions = [-1] * n
        self._usable = np.array([m.usable_bytes() for m in managers],
                                dtype=float)
        self._row_of = {m: i for i, m in enumerate(managers)}
        self._moved.update(managers)
        for m in managers:
            m.watch_resident(self._moved)
        self._resident = np.zeros(n)
        #: columns that hold a non-default value on few hosts, and the
        #: rows each was written on by the last refresh
        self._sparse = {
            "reserved": np.zeros(n),
            "inflight": np.zeros(n, dtype=np.int64),
            "health": np.zeros(n, dtype=np.int8),
            "draining": np.zeros(n, dtype=bool),
            "retired": np.zeros(n, dtype=bool),
        }
        self._written: dict[str, list[int]] = {k: [] for k in self._sparse}
        #: per tier (rack, pod, AZ): each host's domain name, and the
        #: live-VM load per domain with each host's domain id into it
        #: (hosts outside the tier point at a last slot that stays 0)
        tiers = ((None,) * 3 if topo is None
                 else (topo.rack_of, topo.pod_of, topo.az_of))
        self._domains = []
        self._domain_loads = []
        for of in tiers:
            domains = [None] * n if of is None else [of(h) for h in names]
            known = sorted({d for d in domains if d is not None})
            slot = {d: i for i, d in enumerate(known)}
            ids = np.array([slot.get(d, len(known)) for d in domains],
                           dtype=np.intp)
            self._domains.append(_objects(domains))
            self._domain_loads.append(
                (np.zeros(len(known) + 1, dtype=np.int64), ids))
        self._domain_load_cols = [np.zeros(n, dtype=np.int64)
                                  for _ in range(3)]
        self._vms = _objects([()] * n)
        self._tenants = _objects([{} for _ in range(n)])
        self._tenant_cols: dict[str, np.ndarray] = {}
        self._built_for = (len(world.hosts), self.tenant_of)

    def _recount(self, i: int) -> None:
        """Rebuild host ``i``'s live-VM tuple and tenant counts, and move
        the tenant and fault-domain load arrays by the difference."""
        tenant_of = self.tenant_of
        vms = self._hosts[i].vms
        live = []
        tenants: dict[str, int] = {}
        for vm_name in sorted(vms):
            if vms[vm_name].state is VmState.TERMINATED:
                continue
            live.append(vm_name)
            tenant = tenant_of(vm_name)
            if tenant is not None:
                tenants[tenant] = tenants.get(tenant, 0) + 1
        cols = self._tenant_cols
        for tenant, n in self._tenants[i].items():
            cols[tenant][i] -= n
        for tenant, n in tenants.items():
            col = cols.get(tenant)
            if col is None:
                col = cols[tenant] = np.zeros(len(self._hosts),
                                              dtype=np.int64)
            col[i] += n
        delta = len(live) - len(self._vms[i])
        self._vms[i] = tuple(live)
        self._tenants[i] = tenants
        if delta:
            for (loads, ids), domains in zip(self._domain_loads,
                                             self._domains):
                if domains[i] is not None:
                    loads[ids[i]] += delta
