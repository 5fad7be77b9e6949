"""VMD cluster: servers plus namespace factory and tick wiring.

The paper's deployment runs a VMD server on every intermediate host and a
VMD client on the source/destination hosts; clients export one namespace
per VM. :class:`VMDCluster` owns the server list and creates correctly
registered namespaces.
"""

from __future__ import annotations

from repro.net.network import Network
from repro.obs.tracer import NULL_TRACER
from repro.sim.periodic import TickEngine
from repro.vmd.namespace import VMDNamespace
from repro.vmd.placement import RoundRobinPlacement
from repro.vmd.server import VMDServer

__all__ = ["VMDCluster", "ADAPTER_ORDER"]

#: tick order for resource adapters (namespaces): after all consumers
#: (order 0) in the pre phase, and after the network (order 0) in the
#: arbitration phase.
ADAPTER_ORDER = 10


class VMDCluster:
    """The distributed memory pool and its per-VM namespaces."""

    def __init__(self, network: Network, engine: TickEngine,
                 servers: list[VMDServer],
                 placement_chunk_bytes: float = 256 * 2 ** 10,
                 tracer=None):
        if not servers:
            raise ValueError("VMD cluster needs at least one server")
        for s in servers:
            if not network.has_host(s.host):
                raise ValueError(f"server host not in network: {s.host}")
        self.network = network
        self.engine = engine
        self.servers = list(servers)
        self.placement_chunk_bytes = float(placement_chunk_bytes)
        self.namespaces: dict[str, VMDNamespace] = {}
        #: reader count per namespace; creation takes the first reference
        #: and clone replicas take more (shared parent images) — bytes and
        #: tick registrations are only freed when the last reader releases
        self._refs: dict[str, int] = {}
        self.tracer = tracer if tracer is not None else NULL_TRACER
        self._placeable = None  # set by attach_health()
        #: open async "server-down" span per failed donor host
        self._down_spans: dict[str, int] = {}

    def attach_health(self, tracker) -> None:
        """Skip donors on unhealthy hosts when placing new pages.

        ``tracker`` is a :class:`~repro.sched.HostHealthTracker` (duck
        typed: only ``donor_placeable(host)`` is used). Applies to every
        existing namespace and to namespaces created afterwards; donors
        ruled out keep serving reads of what they already hold.
        """
        self._placeable = lambda server: tracker.donor_placeable(server.host)
        for ns in self.namespaces.values():
            ns.placement.placeable = self._placeable

    def create_namespace(self, name: str,
                         replication: int = 1) -> VMDNamespace:
        """Create (and tick-register) the per-VM namespace ``name``."""
        if name in self.namespaces:
            raise ValueError(f"namespace exists: {name}")
        ns = VMDNamespace(
            name, self.network, self.servers,
            RoundRobinPlacement(self.servers,
                                chunk_bytes=self.placement_chunk_bytes,
                                placeable=self._placeable),
            replication=replication)
        self.namespaces[name] = ns
        self._refs[name] = 1
        self.engine.add_participant(ns, order=ADAPTER_ORDER)
        self.engine.add_arbiter(ns, order=ADAPTER_ORDER)
        if self.tracer.enabled:
            self.tracer.instant(
                "vmd", "create-namespace", cat="vmd",
                args={"namespace": name, "replication": int(replication),
                      "servers": len(self.servers)})
        return ns

    def retain_namespace(self, name: str) -> VMDNamespace:
        """Take another reference on a shared namespace (clone replicas
        reading a parent image). Every retain needs a matching
        :meth:`release_namespace`."""
        ns = self.namespaces.get(name)
        if ns is None:
            raise KeyError(f"no such namespace: {name}")
        self._refs[name] += 1
        return ns

    def release_namespace(self, name: str) -> int:
        """Drop one reference; retire the namespace when the last reader
        is gone: give its stored bytes back to the donors and drop it
        from the tick protocol. Returns the remaining reference count.

        Long-lived fleet churn would otherwise accumulate one dead tick
        participant per departed VM. The caller must have unregistered
        the VM from its host first (that closes the namespace's fault/
        writeback queues).
        """
        ns = self.namespaces.get(name)
        if ns is None:
            raise KeyError(f"no such namespace: {name}")
        self._refs[name] -= 1
        remaining = self._refs[name]
        if remaining > 0:
            if self.tracer.enabled:
                self.tracer.instant("vmd", "release-namespace", cat="vmd",
                                    args={"namespace": name,
                                          "refs": remaining})
            return remaining
        del self.namespaces[name]
        del self._refs[name]
        ns.release(ns.used_bytes)
        self.engine.remove_participant(ns)
        self.engine.remove_arbiter(ns)
        if self.tracer.enabled:
            self.tracer.instant("vmd", "release-namespace", cat="vmd",
                                args={"namespace": name, "refs": 0})
        return 0

    # -- donor failures (fault injection) -------------------------------------
    def server_on(self, host: str) -> VMDServer:
        """The donor running on ``host`` (raises if there is none)."""
        for s in self.servers:
            if s.host == host:
                return s
        raise KeyError(f"no VMD server on host: {host}")

    def fail_server(self, server: VMDServer,
                    lose_contents: bool = False) -> None:
        """Crash a donor and, on content loss, reconcile every namespace
        (drop the destroyed copies, queue background re-replication)."""
        server.fail(lose_contents=lose_contents)
        if self.tracer.enabled and server.host not in self._down_spans:
            self._down_spans[server.host] = self.tracer.async_begin(
                "vmd", "server-down", cat="vmd",
                args={"host": server.host,
                      "lost_contents": bool(lose_contents)})
        if lose_contents:
            for ns in self.namespaces.values():
                ns.handle_server_loss(server)
                if self.tracer.enabled:
                    pending = float(ns.repair_pending_bytes)
                    if pending > 0:
                        self.tracer.instant(
                            "vmd", "repair-queued", cat="vmd",
                            args={"namespace": ns.name,
                                  "pending_bytes": pending})

    def recover_server(self, server: VMDServer) -> None:
        """Bring a crashed donor back into the pool."""
        server.recover()
        span = self._down_spans.pop(server.host, 0)
        if span:
            self.tracer.async_end(span)
