"""The network arbiter: hosts, flows, and max-min fair allocation.

Every tick, :meth:`Network.arbitrate` grants each flow its max-min fair
share of link capacity subject to flow demands, one strict priority
class at a time. This is the standard fluid approximation of TCP
sharing on a switched Ethernet and is what makes the paper's contention
effects emerge: migration traffic squeezing application traffic on the
source NIC, demand-paging requests contending with the active push, and
VMD reads sharing the destination NIC with page fetches from the source.

The network keeps a persistent flow registry: setting a positive demand
enqueues the flow in the tick's active set, so idle flows cost nothing.
Each class is filled by one event-driven water fill
(:meth:`Network._fill_levels`, O(E log L) per class).

The contract is the max-min bottleneck certificate (Bertsekas &
Gallager, *Data Networks* §6.5), not a float-for-float replay: every
grant is at most its demand, and every under-served flow crosses a link
saturated by its own and higher classes on which no flow of its class
gets more. :func:`repro.net.certificate.maxmin_violations` checks it.
The tests also keep the original progressive-filling arbiter as an
oracle (``tests/net_reference.py``); grants agree with it to rel 1e-9.
"""

from __future__ import annotations

import heapq
import operator
from typing import Iterable, Optional, Sequence

from repro.net.flow import Flow
from repro.net.link import Link
from repro.telemetry.instruments import NULL_METRICS

__all__ = ["Network", "NIC"]

_seq_of = operator.attrgetter("_seq")
_demand_of = operator.attrgetter("_demand")

class NIC:
    """A host's network interface: a tx link and an rx link."""

    __slots__ = ("host", "tx", "rx")

    def __init__(self, host: str, bandwidth_bps: float):
        self.host = host
        self.tx = Link(f"{host}.tx", bandwidth_bps)
        self.rx = Link(f"{host}.rx", bandwidth_bps)


class Network:
    """Cluster fabric: per-host NICs plus the flow arbiter.

    Register with a :class:`~repro.sim.TickEngine` as an arbiter::

        net = Network(default_bandwidth_bps=117e6, latency_s=2e-4)
        net.add_host("source"); net.add_host("dest")
        engine.add_arbiter(net)
    """

    def __init__(self, default_bandwidth_bps: float = 117e6,
                 latency_s: float = 2e-4):
        if default_bandwidth_bps <= 0:
            raise ValueError("default bandwidth must be positive")
        if latency_s < 0:
            raise ValueError("latency must be non-negative")
        self.default_bandwidth_bps = float(default_bandwidth_bps)
        self.latency_s = float(latency_s)
        self._nics: dict[str, NIC] = {}
        self._flows: list[Flow] = []
        #: optional datacenter topology: inter-rack flows additionally
        #: cross its ToR uplink links (see repro.sched.Topology)
        self._topology = None
        #: host → partition-group id; empty = fully connected. Flows whose
        #: endpoints sit in different groups receive no bandwidth (the
        #: switch fabric is split; fault injection sets/clears this).
        self._partition: dict[str, int] = {}
        # -- flow registry ----------------------------------------------------
        #: flows that declared a positive demand since the last arbitrate
        self._pending: list[Flow] = []
        #: flows granted bytes last tick (their ``granted`` is zeroed at
        #: the start of the next arbitrate instead of scanning all flows)
        self._granted_last: list[Flow] = []
        self._closed_any = False
        self._flow_seq = 0
        #: live-metrics sink; the no-op default keeps the per-tick
        #: accounting behind one attribute check (a World with metrics
        #: enabled re-assigns this)
        self.metrics = NULL_METRICS

    # -- topology -----------------------------------------------------------
    def add_host(self, host: str, bandwidth_bps: Optional[float] = None) -> NIC:
        """Attach a host to the fabric with its own full-duplex NIC."""
        if host in self._nics:
            raise ValueError(f"host already attached: {host}")
        nic = NIC(host, bandwidth_bps or self.default_bandwidth_bps)
        self._nics[host] = nic
        return nic

    def has_host(self, host: str) -> bool:
        return host in self._nics

    def nic(self, host: str) -> NIC:
        return self._nics[host]

    def set_topology(self, topology) -> None:
        """Route future flows through ``topology``'s rack uplinks.

        Must be called before any flow is opened — existing flows have
        their link paths baked in and would silently bypass the uplinks.
        """
        if self._flows:
            raise RuntimeError("set_topology() before opening flows")
        self._topology = topology

    def hops(self, src: str, dst: str) -> int:
        """Store-and-forward hops on the src→dst path (0 intra-host).

        Without a topology — or when either endpoint is outside it, or
        both share a rack — a transfer crosses one switch hop. An
        inter-rack transfer additionally crosses every topology link on
        the tier path: the ToR uplinks, any pod/AZ uplinks between the
        endpoints, and the core (if modeled). Counted via the topology's
        ``path_hops`` (its ``crossings`` counts ToR escapes only, not
        path length).
        """
        if src == dst:
            return 0
        extra = 0
        if self._topology is not None:
            extra = self._topology.path_hops(src, dst)
        return 1 + extra

    def one_way_latency(self, src: str, dst: str) -> float:
        """Propagation delay of one src→dst delivery, charged per hop."""
        return self.latency_s * self.hops(src, dst)

    # -- flows ----------------------------------------------------------------
    def open_flow(self, src: str, dst: str, priority: int = 1,
                  name: str = "") -> Flow:
        """Create a flow from ``src`` to ``dst``.

        An intra-host flow (``src == dst``) crosses no links and always
        receives its full demand (memory-to-memory copy is not modeled as
        a bottleneck, matching the paper's focus on network and swap I/O).
        """
        for h in (src, dst):
            if h not in self._nics:
                raise ValueError(f"unknown host: {h}")
        if src == dst:
            links: tuple[Link, ...] = ()
        else:
            extra: tuple[Link, ...] = ()
            if self._topology is not None:
                extra = self._topology.path_links(src, dst)
            links = (self._nics[src].tx, *extra, self._nics[dst].rx)
        flow = Flow(name or f"{src}->{dst}", links, priority=priority,
                    src=src, dst=dst)
        self._flow_seq += 1
        flow._seq = self._flow_seq
        flow._registry = self
        self._flows.append(flow)
        return flow

    @property
    def flows(self) -> list[Flow]:
        return list(self._flows)

    # -- flow registry ----------------------------------------------------------
    def _mark_active(self, flow: Flow) -> None:
        self._pending.append(flow)

    def _mark_closed(self, flow: Flow) -> None:
        self._closed_any = True

    # -- partitions (fault injection) -----------------------------------------
    def set_partition(self, groups: Sequence[Iterable[str]]) -> None:
        """Split the fabric: hosts in different groups cannot exchange bytes.

        Hosts not named in any group form one implicit extra group (so a
        partition isolating a single host is just ``[{"that_host"}]``).
        Replaces any previous partition.
        """
        mapping: dict[str, int] = {}
        for gid, group in enumerate(groups):
            for host in group:
                if host not in self._nics:
                    raise ValueError(f"unknown host: {host}")
                if host in mapping:
                    raise ValueError(f"host in two partition groups: {host}")
                mapping[host] = gid
        self._partition = mapping

    def clear_partition(self) -> None:
        """Heal the fabric (fault reverted)."""
        self._partition = {}

    def reachable(self, src: str, dst: str) -> bool:
        """Whether bytes can currently move from ``src`` to ``dst``."""
        if src == dst or not self._partition:
            return True
        # -1: the implicit "everyone else" group (no group has that id)
        return self._partition.get(src, -1) == self._partition.get(dst, -1)

    # -- arbitration ------------------------------------------------------------
    def arbitrate(self, dt: float) -> None:
        """Grant each flow its max-min fair share of link capacity.

        Priority classes are strict: class 0 is allocated against full
        link capacities; class 1 sees only the remaining headroom, etc.
        Within a class, allocation is max-min fair with demand caps.
        Only flows that declared demand since the last tick are visited.
        """
        # Zero only last tick's grants instead of scanning every flow.
        for f in self._granted_last:
            f.granted = 0.0
        granted_now: list[Flow] = []
        self._granted_last = granted_now

        if self._closed_any:
            self._flows = [f for f in self._flows if f.active]
            self._closed_any = False

        pending, self._pending = self._pending, []
        active = []
        for f in pending:
            f._marked = False
            if f.active and f._demand > 0:
                active.append(f)
        if self._partition:
            # Partitioned flows get nothing; their demand is consumed all
            # the same, so owners re-declare next tick (and heal cleanly).
            reachable = self.reachable
            cut = [f for f in active if not reachable(f.src, f.dst)]
            for f in cut:
                f._demand = 0.0
            if cut:
                active = [f for f in active if reachable(f.src, f.dst)]
        if active:
            # Canonical order = open order (demand-declaration order is
            # caller-dependent).
            active.sort(key=_seq_of)
            remaining: dict[Link, float] = {}
            batches: dict[int, list[Flow]] = {}
            for f in active:
                batches.setdefault(f.priority, []).append(f)
            for prio in sorted(batches):
                self._fill_levels(batches[prio], remaining, dt)
            for f in active:
                f._demand = 0.0
                g = f.granted
                if g > 0:
                    f.total_bytes += g
                    for link in f.links:
                        link.bytes_carried += g
                    granted_now.append(f)

        if self.metrics.enabled:
            # granted_now holds exactly the flows granted this tick, in
            # open order
            granted = 0.0
            for f in granted_now:
                granted += f.granted
            m = self.metrics
            m.counter("net.granted_bytes").inc(granted)
            m.gauge("net.active_flows").set(len(granted_now))
            m.rate("net.throughput_bytes").mark(granted)

    @staticmethod
    def _fill_levels(flows: list[Flow], remaining: dict[Link, float],
                     dt: float) -> None:
        """Max-min fill of one priority class by level events.

        All unfrozen flows share one level. Link *l* saturates at level
        ``R_l / n_l`` — its headroom left after the grants of frozen
        flows, over its unfrozen flows — and flow *f* stops at its
        demand. Each event is the smallest of these: a demand event
        freezes one flow at its demand (demand wins a tie), a link event
        freezes every unfrozen flow on that link at the level. Link
        levels sit in a heap with lazy invalidation (``stamp`` holds each
        link's live entry id, -1 once no unfrozen flow crosses it), so a
        class costs O(E log L) for E flow-link incidences on L links.
        Every event freezes at least one flow, so the loop ends after at
        most one event per flow. ``remaining`` (headroom per link, filled
        lazily from capacity) gets this class's leftover, clamped at 0.
        """
        members: dict[Link, list[Flow]] = {}
        rest = []
        for f in flows:
            if not f.links:
                f.granted = f._demand  # intra-host: unconstrained
                continue
            rest.append(f)
            for link in f.links:
                members.setdefault(link, []).append(f)
        if not rest:
            return

        headroom = {link: remaining[link] if link in remaining
                    else link.capacity_per_tick(dt) for link in members}
        count = {link: len(fs) for link, fs in members.items()}
        stamp = {link: i for i, link in enumerate(members)}
        heap = [(headroom[link] / count[link], i, link)
                for link, i in stamp.items()]
        heapq.heapify(heap)
        next_id = len(heap)
        frozen: set[Flow] = set()

        def freeze(f: Flow, g: float) -> None:
            nonlocal next_id
            f.granted = g
            frozen.add(f)
            for link in f.links:
                n = count[link] - 1
                count[link] = n
                r = headroom[link] - g
                headroom[link] = r
                if not n:
                    stamp[link] = -1
                elif stamp[link] >= 0:
                    stamp[link] = next_id
                    heapq.heappush(heap, (r / n, next_id, link))
                    next_id += 1

        by_demand = sorted(rest, key=_demand_of)
        level = 0.0
        k = 0
        while k < len(by_demand):
            f = by_demand[k]
            if f in frozen:
                k += 1
                continue
            while stamp[heap[0][2]] != heap[0][1]:
                heapq.heappop(heap)  # stale entry
            link_level, _, link = heap[0]
            if f._demand <= link_level:
                level = f._demand
                freeze(f, level)
                k += 1
                continue
            heapq.heappop(heap)
            if link_level > level:
                level = link_level
            stamp[link] = -1  # saturated: its flows push no new levels
            for other in members[link]:
                if other not in frozen:
                    freeze(other, level)

        for link, r in headroom.items():
            remaining[link] = r if r > 0.0 else 0.0
