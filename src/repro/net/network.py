"""The network arbiter: hosts, flows, and max-min fair allocation.

Every tick, :meth:`Network.arbitrate` performs progressive filling
(water-filling) of flow rates subject to link capacities and flow demands,
one strict priority class at a time. This is the standard fluid
approximation of TCP sharing on a switched Ethernet and is what makes the
paper's contention effects emerge: migration traffic squeezing application
traffic on the source NIC, demand-paging requests contending with the
active push, and VMD reads sharing the destination NIC with page fetches
from the source.

Two arbitration implementations share that contract:

* the **reference path** (``fast_path=False``) is the original per-tick
  algorithm: rebuild a link→headroom dict, scan every flow, run
  dict-based progressive filling — simple, and kept as the oracle;
* the **fast path** (the default) keeps a persistent flow registry —
  links are interned to integer indices at ``open_flow`` time, setting a
  positive demand enqueues the flow in the tick's active set, and the
  progressive filling runs over a reusable NumPy headroom array (a
  scalar loop for small priority classes, ``bincount``/``subtract.at``
  vectorization for large ones). Idle flows cost nothing. The fast path
  performs the *same* floating-point operations in the same order as the
  reference, so grants are bit-identical — enforced by the randomized
  differential tests in ``tests/test_net_fastpath.py``.
"""

from __future__ import annotations

import operator
from typing import Iterable, Optional, Sequence

import numpy as np

from repro.net.flow import Flow
from repro.net.link import Link
from repro.telemetry.instruments import NULL_METRICS

__all__ = ["Network", "NIC"]

_seq_of = operator.attrgetter("_seq")

#: priority classes at or below this size use the scalar filling loop —
#: NumPy call overhead beats the win for a handful of flows (the common
#: case: one demand-paging flow in class 0, a few migrations in class 1)
_SCALAR_BATCH = 12

#: progressive-filling iterations that freeze no flow before a fill
#: gives up. Every other iteration retires at least one flow, so those
#: are bounded by the class size; only a stalled loop can hit this.
_MAX_STALLS = 10000


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

    ``fast_path=False`` selects the reference arbiter (the oracle the
    differential tests compare against); grants are bit-identical either
    way.
    """

    def __init__(self, default_bandwidth_bps: float = 117e6,
                 latency_s: float = 2e-4, fast_path: bool = True):
        if default_bandwidth_bps <= 0:
            raise ValueError("default bandwidth must be positive")
        if latency_s < 0:
            raise ValueError("latency must be non-negative")
        self.default_bandwidth_bps = float(default_bandwidth_bps)
        self.latency_s = float(latency_s)
        self.fast_path = bool(fast_path)
        self._nics: dict[str, NIC] = {}
        self._flows: list[Flow] = []
        #: optional datacenter topology: inter-rack flows additionally
        #: cross its ToR uplink links (see repro.sched.Topology)
        self._topology = None
        #: host → partition-group id; empty = fully connected. Flows whose
        #: endpoints sit in different groups receive no bandwidth (the
        #: switch fabric is split; fault injection sets/clears this).
        self._partition: dict[str, int] = {}
        # -- fast-path state -------------------------------------------------
        #: interned links: Link → index, and index → Link
        self._link_index: dict[Link, int] = {}
        self._links: list[Link] = []
        #: reusable per-link headroom array (bytes this tick); refreshed
        #: each arbitrate for the links active flows touch
        self._remaining = np.empty(0, dtype=np.float64)
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

    def rtt(self, src: str, dst: str) -> float:
        """Round-trip latency between two hosts (0 for intra-host)."""
        return 2.0 * self.one_way_latency(src, dst)

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
        if self.fast_path:
            lids = tuple(self._intern(link) for link in links)
            flow._lids = lids
            flow._link_ids = np.asarray(lids, dtype=np.intp)
            flow._registry = self
        self._flows.append(flow)
        return flow

    @property
    def flows(self) -> list[Flow]:
        return list(self._flows)

    # -- flow registry (fast path) --------------------------------------------
    def _intern(self, link: Link) -> int:
        idx = self._link_index.get(link)
        if idx is None:
            idx = len(self._links)
            self._link_index[link] = idx
            self._links.append(link)
        return idx

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
        implicit = len(self._partition) + 1  # the "everyone else" group
        return (self._partition.get(src, implicit)
                == self._partition.get(dst, implicit))

    # -- arbitration ------------------------------------------------------------
    def arbitrate(self, dt: float) -> None:
        """Grant each flow its max-min fair share of link capacity.

        Priority classes are strict: class 0 is allocated against full
        link capacities; class 1 sees only the remaining headroom, etc.
        Within a class, allocation is max-min fair with demand caps
        (progressive filling).
        """
        if self.fast_path:
            self._arbitrate_fast(dt)
        else:
            self._arbitrate_reference(dt)
        if self.metrics.enabled:
            granted = 0.0
            active = 0
            for f in self._flows:
                if f.granted > 0:
                    granted += f.granted
                    active += 1
            m = self.metrics
            m.counter("net.granted_bytes").inc(granted)
            m.gauge("net.active_flows").set(active)
            m.rate("net.throughput_bytes").mark(granted)

    # -- reference implementation (the oracle) ---------------------------------
    def _arbitrate_reference(self, dt: float) -> None:
        # Reap closed flows.
        if any(not f.active for f in self._flows):
            self._flows = [f for f in self._flows if f.active]

        remaining: dict[Link, float] = {}
        active = [f for f in self._flows if f.demand > 0]
        if self._partition:
            # Partitioned flows get nothing; their demand is consumed all
            # the same so owners re-declare next tick (and heal cleanly).
            cut = [f for f in active if not self.reachable(f.src, f.dst)]
            for f in cut:
                f.demand = 0.0
            if cut:
                active = [f for f in active if self.reachable(f.src, f.dst)]
        for f in self._flows:
            f.granted = 0.0
        for f in active:
            for link in f.links:
                remaining.setdefault(link, link.capacity_per_tick(dt))

        for prio in sorted({f.priority for f in active}):
            batch = [f for f in active if f.priority == prio]
            self._fill(batch, remaining)

        for f in active:
            # Demands are per-tick declarations: the arbiter consumes them,
            # so a participant that goes quiet stops receiving bandwidth.
            f.demand = 0.0
            if f.granted > 0:
                f.total_bytes += f.granted
                for link in f.links:
                    link.bytes_carried += f.granted

    @staticmethod
    def _fill(flows: list[Flow], remaining: dict[Link, float]) -> None:
        """Progressive filling of one priority class (rates in bytes/tick)."""
        unfrozen = [f for f in flows if f.demand > 0]
        # Intra-host flows are unconstrained: grant demand immediately.
        for f in list(unfrozen):
            if not f.links:
                f.granted = f.demand
                unfrozen.remove(f)

        stalls = 0
        while unfrozen:
            # Count unfrozen flows per link.
            counts: dict[Link, int] = {}
            for f in unfrozen:
                for link in f.links:
                    counts[link] = counts.get(link, 0) + 1
            # The smallest feasible uniform increment.
            delta = min(
                min(remaining[l] / n for l, n in counts.items()),
                min(f.demand - f.granted for f in unfrozen),
            )
            delta = max(delta, 0.0)
            for f in unfrozen:
                f.granted += delta
                for link in f.links:
                    remaining[link] -= delta
            # Freeze demand-satisfied flows and flows on exhausted links.
            eps = 1e-9
            still = []
            for f in unfrozen:
                if f.granted >= f.demand - eps:
                    f.granted = min(f.granted, f.demand)
                    continue
                if any(remaining[l] <= eps for l in f.links):
                    continue
                still.append(f)
            if len(still) == len(unfrozen):
                if delta <= eps:
                    break  # nothing can advance (all links exhausted)
                stalls += 1
                if stalls > _MAX_STALLS:  # pragma: no cover - safety net
                    raise RuntimeError(
                        "progressive filling failed to converge")
            unfrozen = still

    # -- fast implementation ----------------------------------------------------
    def _arbitrate_fast(self, dt: float) -> None:
        """Same contract and bit-identical grants as the reference, but
        O(active flows) per tick instead of O(all flows)."""
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
            reachable = self.reachable
            cut = [f for f in active if not reachable(f.src, f.dst)]
            for f in cut:
                f._demand = 0.0
            if cut:
                active = [f for f in active if reachable(f.src, f.dst)]
        if not active:
            return
        # Canonical order = open order, matching the reference's scan of
        # self._flows (demand-declaration order is caller-dependent).
        active.sort(key=_seq_of)

        # Refresh per-link headroom for touched links only. Same floats
        # as the reference's ``capacity_per_tick(dt)``: one multiply.
        nlinks = len(self._links)
        if self._remaining.shape[0] < nlinks:
            self._remaining = np.empty(nlinks, dtype=np.float64)
        rem, links = self._remaining, self._links
        srt = np.sort(np.concatenate([f._link_ids for f in active]))
        if srt.shape[0]:
            keep = np.empty(srt.shape[0], dtype=bool)
            keep[0] = True
            np.not_equal(srt[1:], srt[:-1], out=keep[1:])
            uids = srt[keep]
            caps = [links[i].capacity_bps for i in uids.tolist()]
            rem[uids] = np.asarray(caps, dtype=np.float64) * dt

        batches: dict[int, list[Flow]] = {}
        for f in active:
            batches.setdefault(f.priority, []).append(f)
        for prio in sorted(batches):
            batch = batches[prio]
            if len(batch) <= _SCALAR_BATCH:
                self._fill_fast_scalar(batch, rem)
            else:
                self._fill_fast_vector(batch, rem)

        for f in active:
            f._demand = 0.0
            g = f.granted
            if g > 0:
                f.total_bytes += g
                for link in f.links:
                    link.bytes_carried += g
                granted_now.append(f)

    @staticmethod
    def _fill_fast_scalar(flows: list[Flow], rem: np.ndarray) -> None:
        """Reference filling loop over the interned headroom array —
        identical arithmetic, no per-tick dict rebuild."""
        unfrozen = [f for f in flows if f._demand > 0]
        for f in list(unfrozen):
            if not f._lids:
                f.granted = f._demand
                unfrozen.remove(f)

        stalls = 0
        while unfrozen:
            counts: dict[int, int] = {}
            for f in unfrozen:
                for lid in f._lids:
                    counts[lid] = counts.get(lid, 0) + 1
            delta = min(
                min(rem[lid] / n for lid, n in counts.items()),
                min(f._demand - f.granted for f in unfrozen),
            )
            delta = max(delta, 0.0)
            for f in unfrozen:
                f.granted += delta
                for lid in f._lids:
                    rem[lid] -= delta
            eps = 1e-9
            still = []
            for f in unfrozen:
                if f.granted >= f._demand - eps:
                    f.granted = min(f.granted, f._demand)
                    continue
                if any(rem[lid] <= eps for lid in f._lids):
                    continue
                still.append(f)
            if len(still) == len(unfrozen):
                if delta <= eps:
                    break
                stalls += 1
                if stalls > _MAX_STALLS:  # pragma: no cover - safety net
                    raise RuntimeError(
                        "progressive filling failed to converge")
            unfrozen = still

    @staticmethod
    def _fill_fast_vector(flows: list[Flow], rem: np.ndarray) -> None:
        """Vectorized progressive filling for large priority classes.

        Performs the same increment sequence as the reference, with two
        exactness arguments doing the heavy lifting:

        * headroom is decremented once per (flow, link) incidence via
          ``np.subtract.at`` — unbuffered, so repeated indices accumulate
          exactly like the reference's per-flow loop (and within one
          iteration all incidences subtract the *same* delta, so the
          incidence order is irrelevant);
        * every unfrozen flow in a class carries the same accumulated
          grant ``g`` (all start at zero and receive the same deltas), and
          float subtraction is monotone, so the reference's
          ``min(f.demand - f.granted)`` equals ``min(demand) - g``
          bit-for-bit.

        Together these let the loop keep a single scalar ``g`` and touch
        per-flow state only when a flow freezes. The class works on a
        *dense* copy of its links' headroom (written back on exit), so the
        steady-state iteration is four whole-array NumPy calls with no
        gathers: divide, min, ``subtract.at``, min. Links whose unfrozen
        count reaches zero leave the working set via an ``inf`` sentinel
        (their true headroom is restored at write-back), which keeps them
        out of both the delta min and the exhausted-link check exactly
        like the reference's shrinking count dict does.
        """
        unfrozen = [f for f in flows if f._demand > 0]
        rest = []
        for f in unfrozen:
            if not f._lids:
                f.granted = f._demand
            else:
                rest.append(f)
        if not rest:
            return

        eps = 1e-9
        inf = np.inf
        n = len(rest)
        ids_raw = np.concatenate([f._link_ids for f in rest])
        bounds = np.zeros(n + 1, dtype=np.intp)
        np.cumsum(np.fromiter((len(f._lids) for f in rest),
                              dtype=np.intp, count=n), out=bounds[1:])
        demand = [f._demand for f in rest]
        # the reference's ``demand - eps`` floats (scalar math: identical)
        demand_me = [d - eps for d in demand]
        #: flow indices in ascending-demand order: demand-satisfied
        #: freezes peel a prefix of this walk (fl-subtraction is monotone,
        #: so min demand also yields the min ``demand - eps`` threshold)
        order = sorted(range(n), key=demand.__getitem__)
        ptr = 0

        # Dense link universe for this class: remD is a working copy of
        # the touched links' headroom, written back before returning.
        # (np.unique by hand — sort + neighbour mask beats the hash path.)
        srt = np.sort(ids_raw)
        keep = np.empty(srt.shape[0], dtype=bool)
        keep[0] = True
        np.not_equal(srt[1:], srt[:-1], out=keep[1:])
        used = srt[keep]
        ids_all = np.searchsorted(used, ids_raw)
        entry_flow = np.repeat(np.arange(n, dtype=np.intp),
                               np.diff(bounds))
        remD = rem[used]  # fancy indexing copies
        nu = remD.shape[0]
        buf = np.empty(nu, dtype=np.float64)
        ids_list = ids_all.tolist()  # python ints for the freeze loop
        #: headroom of links that left the working set (count hit zero),
        #: by dense id — restored at write-back over the inf sentinel
        stale: dict[int, float] = {}

        alive_flags = [True] * n
        entry_alive = np.ones(ids_all.shape[0], dtype=bool)
        ids_alive = ids_all
        ef_alive = entry_flow
        ef_fresh = True  # ef_alive matches entry_alive (recomputed lazily)
        #: unfrozen-flow count per link (floats: division needs no cast;
        #: 1.0 sentinel on stale links keeps the divide inf, not nan)
        counts = np.bincount(ids_all, minlength=nu).astype(np.float64)
        d_min = demand[order[0]]
        d_min_me = d_min - eps
        n_alive = n

        g = 0.0
        stalls = 0
        subtract_at = np.subtract.at
        divide = np.divide
        amin = np.minimum.reduce
        while True:
            divide(remD, counts, out=buf)
            delta = float(amin(buf))
            gap = d_min - g
            if gap < delta:
                delta = gap
            if delta < 0.0:
                delta = 0.0
            subtract_at(remD, ids_alive, delta)
            g += delta
            # Scalar pre-checks: a flow froze this iteration iff the
            # smallest alive demand is now met or some working link is
            # exhausted — only then touch per-flow state.
            sat_any = g >= d_min_me
            dead_any = float(amin(remD)) <= eps
            if not (sat_any or dead_any):
                if delta <= eps:
                    break  # nothing can advance (all links exhausted)
                stalls += 1
                if stalls > _MAX_STALLS:  # pragma: no cover - safety net
                    raise RuntimeError(
                        "progressive filling failed to converge")
                continue
            # Freeze demand-satisfied flows and flows on exhausted links
            # (demand check first, mirroring the reference's ``continue``).
            frozen: set[int] = set()
            if sat_any:
                k = ptr
                while k < n:
                    i = order[k]
                    if alive_flags[i]:
                        if demand_me[i] > g:
                            break
                        frozen.add(i)
                    k += 1
            if dead_any:
                # Flows incident to an exhausted link, via the alive
                # entry list (no per-link membership bookkeeping).
                if not ef_fresh:
                    ef_alive = entry_flow[entry_alive]
                    ef_fresh = True
                frozen.update(ef_alive[(remD <= eps)[ids_alive]].tolist())
            for i in frozen:
                f = rest[i]
                f.granted = min(g, f._demand) if g >= demand_me[i] else g
                alive_flags[i] = False
                b0 = bounds[i]
                b1 = bounds[i + 1]
                entry_alive[b0:b1] = False
                for lid in ids_list[b0:b1]:
                    c = counts[lid] - 1.0
                    if c == 0.0:
                        stale[lid] = remD[lid]
                        remD[lid] = inf
                        counts[lid] = 1.0
                    else:
                        counts[lid] = c
            n_alive -= len(frozen)
            if not n_alive:
                break
            ids_alive = ids_all[entry_alive]
            ef_fresh = False
            while not alive_flags[order[ptr]]:
                ptr += 1
            d_min = demand[order[ptr]]
            d_min_me = d_min - eps
        # Flows still unfrozen at exhaustion keep their accumulated grant.
        if n_alive:
            for i, f in enumerate(rest):
                if alive_flags[i]:
                    f.granted = g
        # Write the class's headroom consumption back for later classes.
        for lid, v in stale.items():
            remD[lid] = v
        rem[used] = remD
