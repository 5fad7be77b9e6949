"""VMD namespace: a per-VM block device backed by remote memory.

A namespace is the paper's logical partition of the aggregate memory
space, exported to the VM's current host as a block device. It implements
the same queue-based :class:`~repro.mem.device.SwapBackend` interface as
the local SSD, but grants are produced by network flows to the VMD
servers, so VMD I/O competes with every other byte on the hosts' NICs.

Because the device is *per-VM and portable*, queues are opened with the
requesting host: while the VM runs at the source its fault/writeback
queues move bytes between the source and the intermediates; after
migration the destination opens its own queues and the source side is
disconnected (§IV-B) — the stored pages persist on the servers.
"""

from __future__ import annotations

from typing import Optional

from repro.mem.device import DeviceQueue, Kind
from repro.net.flow import Flow
from repro.net.network import Network
from repro.sim.periodic import Parkable
from repro.vmd.placement import RoundRobinPlacement
from repro.vmd.server import VMDServer

__all__ = ["VMDNamespace", "VmdQueue"]


class VmdQueue(DeviceQueue):
    """A device queue whose grants come from client↔server network flows."""

    __slots__ = ("host", "priority", "flows")

    def __init__(self, name: str, kind: Kind, host: str, priority: int):
        super().__init__(name, kind)
        self.host = host
        self.priority = priority
        #: per-server flow carrying this queue's traffic
        self.flows: dict[VMDServer, Flow] = {}

    def close(self) -> None:
        super().close()
        for flow in self.flows.values():
            flow.close()
        self.flows.clear()


class VMDNamespace(Parkable):
    """One VM's portable swap device.

    Registration: add as a tick **participant with a late order** (its
    ``pre_tick`` translates consumer queue demands into flow demands, so
    it must run after consumers) *and* as an **arbiter after the network**
    (its ``arbitrate`` translates flow grants back into queue grants and
    allocates server memory for accepted writes).
    :meth:`~repro.vmd.VMDCluster.create_namespace` wires this up. A
    namespace with no queue demand and no repair backlog parks in both
    roles; queue demand or a repair backlog wakes it.
    """

    def __init__(self, name: str, network: Network,
                 servers: list[VMDServer],
                 placement: Optional[RoundRobinPlacement] = None,
                 replication: int = 1):
        if not servers:
            raise ValueError("namespace needs at least one server")
        if not 1 <= replication <= len(servers):
            raise ValueError("replication must be in [1, n_servers]")
        self.name = name
        self.network = network
        self.servers = list(servers)
        self.placement = placement or RoundRobinPlacement(servers)
        #: copies kept of every page; > 1 tolerates donor failures at the
        #: cost of write amplification (an extension beyond the paper,
        #: whose single-copy VMD loses cold pages with a donor host)
        self.replication = int(replication)
        self._queues: list[VmdQueue] = []
        #: bytes of this namespace stored per server (placement outcome)
        self._stored: dict[VMDServer, float] = {s: 0.0 for s in servers}
        #: set when a content-losing donor crash destroyed the *only* copy
        #: of part of this namespace (replication == 1): reads can never
        #: complete and the owning VM is unrecoverable
        self.data_lost = False
        #: physical bytes whose replication factor must be restored after
        #: a content-losing donor crash (drained by background repair)
        self._repair_backlog = 0.0
        #: lifetime bytes re-replicated onto surviving donors
        self.repaired_bytes = 0.0
        self._repair_flows: dict[tuple[VMDServer, VMDServer], Flow] = {}
        self._repair_plan: dict[VMDServer, Flow] = {}
        #: set by VmdQueue.close(); pre_tick compacts without scanning
        self._needs_compact = False

    # -- SwapBackend interface ---------------------------------------------------
    def open_queue(self, name: str, kind: Kind, host: Optional[str] = None,
                   priority: int = 1) -> VmdQueue:
        """Open a requester lane from ``host`` (required for VMD: the
        traffic direction depends on where the block device is attached)."""
        if host is None:
            raise ValueError("VMD queues require the requesting host")
        if not self.network.has_host(host):
            raise ValueError(f"unknown host: {host}")
        q = VmdQueue(f"{self.name}.{name}", kind, host, priority)
        q._owner = self
        self._queues.append(q)
        return q

    # -- space accounting ----------------------------------------------------------
    @property
    def used_bytes(self) -> float:
        return sum(self._stored.values())

    def preload(self, n_bytes: float) -> float:
        """Place ``n_bytes`` (times the replication factor) on the
        servers without network cost.

        Used by scenario setup for state that was swapped out *before*
        the measured window begins (e.g. the cold part of a Redis dataset
        loaded during the unmeasured load phase). Returns logical bytes
        placed.
        """
        per_copy: list[float] = []
        for _ in range(self.replication):
            plan = self.placement.split_write(n_bytes)
            copy_placed = 0.0
            for server, nbytes in plan.items():
                accepted = server.allocate(nbytes)
                self._stored[server] += accepted
                copy_placed += accepted
            per_copy.append(copy_placed)
        return min(per_copy)

    def release(self, n_bytes: float) -> None:
        """Free ``n_bytes`` proportionally across servers (swap slots
        recycled when a VM's pages are discarded)."""
        total = self.used_bytes
        if total <= 0:
            return
        frac = min(1.0, n_bytes / total)
        for server, stored in self._stored.items():
            give_back = stored * frac
            server.release(give_back)
            self._stored[server] = stored - give_back

    # -- donor failures -------------------------------------------------------
    @property
    def repair_pending_bytes(self) -> float:
        """Bytes still awaiting background re-replication."""
        return self._repair_backlog

    def handle_server_loss(self, server: VMDServer) -> float:
        """A donor crashed *and lost its contents*: reconcile.

        The copies it stored are gone. With ``replication >= 2`` the data
        is still readable from surviving donors and the lost copies are
        queued for background re-replication; with a single copy the
        namespace has lost data irrecoverably (:attr:`data_lost`), which
        the Agile engine turns into a VM failure.

        Returns the physical bytes lost on that server. Content-preserving
        crashes (``VMDServer.fail()`` without ``lose_contents``) must NOT
        call this — reads simply stall until the donor recovers.
        """
        lost = self._stored.get(server, 0.0)
        if lost <= 0:
            return 0.0
        self._stored[server] = 0.0
        if self.replication >= 2:
            self._repair_backlog += lost
            self.wake()
        else:
            self.data_lost = True
        return lost

    def _plan_repair(self, dt: float) -> None:
        """Declare background flows re-copying lost replicas.

        One surviving donor (the one holding the most of this namespace)
        streams to targets chosen by the normal write placement, at a low
        priority so repair never competes with foreground I/O.
        """
        src = max((s for s in self.servers
                   if s.alive and self._stored.get(s, 0.0) > 0),
                  key=lambda s: self._stored[s], default=None)
        if src is None:
            return  # no surviving copy reachable this tick; retry later
        want = min(self._repair_backlog, src.service_bps * dt)
        self._repair_plan = {}
        for target, nbytes in self.placement.split_write(want).items():
            if target is src or not target.alive:
                continue  # already holds the copy / can't accept
            flow = self._repair_flow_for(src, target)
            flow.demand = min(nbytes, target.service_bps * dt)
            self._repair_plan[target] = flow

    def _repair_flow_for(self, src: VMDServer, dst: VMDServer) -> Flow:
        flow = self._repair_flows.get((src, dst))
        if flow is None:
            flow = self.network.open_flow(
                src.host, dst.host, priority=2,
                name=f"vmd:{self.name}.repair:{src.host}->{dst.host}")
            self._repair_flows[(src, dst)] = flow
        return flow

    def _close_repair_flows(self) -> None:
        for flow in self._repair_flows.values():
            flow.close()
        self._repair_flows.clear()
        self._repair_plan = {}

    # -- tick protocol ----------------------------------------------------------
    def pre_tick(self, dt: float) -> None:
        if self._needs_compact:
            self._queues = [q for q in self._queues if q.active]
            self._needs_compact = False
        for q in self._queues:
            if q._demand <= 0:
                continue
            if q.kind == "write":
                # One placement plan, scaled by the replication factor
                # (the wire carries the amplified bytes; the queue's
                # grant is de-amplified back to logical bytes in
                # arbitrate). A single split advances the round-robin
                # cursor once per queue per tick and plans the demand
                # against server availability once — splitting per copy
                # planned r × demand against the same free space — and
                # the per-server ``service_bps * dt`` cap then bounds
                # the *merged* replica traffic, not each copy.
                plan = self.placement.split_write(q.demand)
                if self.replication > 1:
                    r = float(self.replication)
                    merged = {server: nbytes * r
                              for server, nbytes in plan.items()}
                else:
                    merged = plan
                for server, nbytes in merged.items():
                    flow = self._flow_for(q, server)
                    flow.demand = min(nbytes, server.service_bps * dt)
            else:
                self._plan_reads(q, dt)
        if self._repair_backlog > 0:
            self._plan_repair(dt)

    def _plan_reads(self, q: VmdQueue, dt: float) -> None:
        """Spread read demand across *alive* servers by stored share.

        With a single copy per page, a dead donor makes its share of the
        namespace unreachable: no flow demand is placed for it, so reads
        stall at whatever the surviving servers hold — the availability
        hazard replication exists to close.
        """
        alive = {s: stored for s, stored in self._stored.items()
                 if s.alive and stored > 0}
        total = sum(alive.values())
        if total > 0:
            weights = {s: stored / total for s, stored in alive.items()}
        else:
            live = [s for s in self.servers if s.alive]
            if not live:
                return  # nothing reachable: reads stall entirely
            # nothing stored yet (e.g. writeback still in flight): spread
            # evenly — the data is reachable via the swap-cache semantics
            weights = {s: 1.0 / len(live) for s in live}
        for server, w in weights.items():
            flow = self._flow_for(q, server)
            flow.demand = min(q.demand * w, server.service_bps * dt)

    def commit_tick(self, dt: float) -> None:
        """No commit-phase work; grants were produced in :meth:`arbitrate`
        (an idle namespace is parked, so this costs a call only on ticks
        with traffic)."""

    def arbitrate(self, dt: float) -> None:
        busy = False
        for q in self._queues:
            granted = 0.0
            for server, flow in q.flows.items():
                g = flow.granted
                flow.demand = 0.0
                if g <= 0:
                    continue
                granted += g
                if q.kind == "write":
                    accepted = server.allocate(g)
                    self._stored[server] += accepted
            if q.kind == "write" and self.replication > 1:
                # the wire moved r copies; the caller wrote g/r bytes
                granted /= self.replication
            if granted > 0 or q._demand > 0:
                busy = True
            q.granted = granted
            q.total_granted += granted
            q._demand = 0.0
        if self._repair_plan:
            for target, flow in self._repair_plan.items():
                g = flow.granted
                flow.demand = 0.0
                if g <= 0:
                    continue
                if not target.alive:
                    # The target died between _plan_repair and now (the
                    # injector fires mid-tick): the copy never landed.
                    # Don't store into a corpse — the backlog keeps the
                    # bytes (it only shrinks by accepted) and the next
                    # pre_tick re-plans onto surviving donors.
                    continue
                accepted = target.allocate(g)
                self._stored[target] = self._stored.get(target, 0.0) + accepted
                self.repaired_bytes += accepted
                self._repair_backlog = max(0.0,
                                           self._repair_backlog - accepted)
            self._repair_plan = {}
            if self._repair_backlog <= 1e-6:
                self._repair_backlog = 0.0
                self._close_repair_flows()
        if not busy and not self._repair_backlog:
            self.park()  # every queue grant just written is 0

    # -- internals -----------------------------------------------------------
    def _flow_for(self, q: VmdQueue, server: VMDServer) -> Flow:
        flow = q.flows.get(server)
        if flow is None:
            if q.kind == "read":
                src, dst = server.host, q.host
            else:
                src, dst = q.host, server.host
            flow = self.network.open_flow(
                src, dst, priority=q.priority,
                name=f"vmd:{q.name}:{server.host}")
            q.flows[server] = flow
        return flow
