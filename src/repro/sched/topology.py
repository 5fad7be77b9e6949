"""Datacenter topology: racks, pods, availability zones, and the core.

The paper's testbed is two hosts on one switch; a production cluster is
a multi-tier fabric: racks of hosts behind top-of-rack (ToR) switches,
racks grouped into pods behind aggregation switches, pods grouped into
availability zones (AZs) behind spine uplinks, AZs joined by a core.
Each tier's uplink is narrower than the sum of the links below it
(oversubscription tapering), and each tier is a unit of correlated
failure. Two consequences matter for migration planning:

* **bandwidth**: a flow crosses one uplink/downlink pair per tier
  boundary between its endpoints — same-rack is free, cross-rack pays
  the ToR uplinks, cross-pod additionally pays the pod uplinks,
  cross-AZ pays the spines (and the core, if modeled). Every link on
  the path is shared with everything else crossing it, so migrating
  close is cheaper than migrating far;
* **fault domains**: the rack is the smallest unit of correlated
  failure (ToR death, PDU trip), the pod the next (aggregation switch,
  power bus), the AZ the largest (facility outage, fabric split).
  :class:`~repro.faults.FaultKind.RACK_CRASH` and
  :class:`~repro.faults.FaultKind.POD_CRASH` crash every host in the
  domain in one deterministic schedule entry;
  :class:`~repro.faults.FaultKind.AZ_PARTITION` splits an AZ off the
  fabric. Anti-affinity scoring spreads VMs across the deepest
  distinct domain so one such event cannot take out both the original
  and the migrated copy.

A flat topology (racks only, no pods or AZs declared) behaves exactly
as before this hierarchy existed: inter-rack paths cross the two ToR
uplinks plus the optional core, and every rack is implicitly in one
shared pod and AZ.

The topology is passed to :meth:`repro.net.Network.set_topology` (flows
then traverse the tier links) and to
:meth:`repro.cluster.World.use_topology` (fault validation, planner
queries).
"""

from __future__ import annotations

from typing import Optional

from repro.net.link import Link

__all__ = ["Az", "Pod", "Rack", "Topology"]


class _Domain:
    """A named fault domain with a full-duplex uplink to its parent tier."""

    __slots__ = ("name", "up", "down", "parent")

    def __init__(self, name: str, uplink_bps: float,
                 parent: Optional["_Domain"] = None):
        #: child → parent direction of the tier uplink
        self.up = Link(f"{name}.up", uplink_bps)
        #: parent → child direction of the tier uplink
        self.down = Link(f"{name}.down", uplink_bps)
        self.name = name
        self.parent = parent

    def __repr__(self) -> str:  # pragma: no cover
        return f"<{type(self).__name__} {self.name}>"


class Az(_Domain):
    """An availability zone: the widest modeled fault domain. Its
    uplink is the spine pair toward the inter-AZ core."""

    __slots__ = ("pods",)

    def __init__(self, name: str, uplink_bps: float):
        super().__init__(name, uplink_bps)
        #: pods assigned to this AZ, in assignment order
        self.pods: list[str] = []


class Pod(_Domain):
    """A pod of racks behind one aggregation-switch uplink."""

    __slots__ = ("racks",)

    def __init__(self, name: str, uplink_bps: float,
                 parent: Optional[Az] = None):
        super().__init__(name, uplink_bps, parent)
        #: racks assigned to this pod, in assignment order
        self.racks: list[str] = []


class Rack(_Domain):
    """One rack: the smallest fault domain, behind a ToR uplink."""

    __slots__ = ("hosts",)

    def __init__(self, name: str, uplink_bps: float,
                 parent: Optional[Pod] = None):
        super().__init__(name, uplink_bps, parent)
        #: hosts assigned to this rack, in assignment order
        self.hosts: list[str] = []


class Topology:
    """Racks (optionally nested in pods and AZs) plus the shared core.

    Parameters
    ----------
    uplink_bps:
        Default ToR uplink capacity (bytes/s, per direction). Choose it
        below ``hosts_per_rack × nic_bps`` to model oversubscription.
    core_bps:
        Optional capacity of one shared core link that every flow
        crossing the *top* tier boundary traverses (both directions
        aggregate); ``None`` models a non-blocking core, which keeps
        the tier uplinks as the only bottlenecks.
    pod_uplink_bps / az_uplink_bps:
        Default capacities for pod and AZ uplinks. They default to the
        ToR uplink capacity; real fabrics taper them *per port* while
        aggregating many children, which
        :meth:`tiered` expresses via an oversubscription ratio.

    Hosts not assigned to any rack (benchmark clients, external load
    generators) are *outside* the topology: their flows cross no
    topology links and they belong to no fault domain.
    """

    def __init__(self, uplink_bps: float, core_bps: Optional[float] = None,
                 pod_uplink_bps: Optional[float] = None,
                 az_uplink_bps: Optional[float] = None):
        if uplink_bps <= 0:
            raise ValueError("uplink capacity must be positive")
        self.uplink_bps = float(uplink_bps)
        self.pod_uplink_bps = float(pod_uplink_bps or uplink_bps)
        self.az_uplink_bps = float(az_uplink_bps or uplink_bps)
        self.racks: dict[str, Rack] = {}
        self.pods: dict[str, Pod] = {}
        self.azs: dict[str, Az] = {}
        self._rack_of: dict[str, str] = {}
        self.core: Optional[Link] = (
            Link("core", core_bps) if core_bps is not None else None)

    # -- assembly -----------------------------------------------------------
    def add_az(self, name: str, uplink_bps: Optional[float] = None) -> Az:
        if name in self.azs:
            raise ValueError(f"az exists: {name}")
        az = Az(name, uplink_bps or self.az_uplink_bps)
        self.azs[name] = az
        return az

    def add_pod(self, name: str, az: Optional[str] = None,
                uplink_bps: Optional[float] = None) -> Pod:
        if name in self.pods:
            raise ValueError(f"pod exists: {name}")
        parent = None
        if az is not None:
            if az not in self.azs:
                raise KeyError(f"unknown az: {az}")
            parent = self.azs[az]
        pod = Pod(name, uplink_bps or self.pod_uplink_bps, parent)
        self.pods[name] = pod
        if parent is not None:
            parent.pods.append(name)
        return pod

    def add_rack(self, name: str, pod: Optional[str] = None,
                 uplink_bps: Optional[float] = None) -> Rack:
        if name in self.racks:
            raise ValueError(f"rack exists: {name}")
        parent = None
        if pod is not None:
            if pod not in self.pods:
                raise KeyError(f"unknown pod: {pod}")
            parent = self.pods[pod]
        rack = Rack(name, uplink_bps or self.uplink_bps, parent)
        self.racks[name] = rack
        if parent is not None:
            parent.racks.append(name)
        return rack

    def assign(self, host: str, rack: str) -> None:
        """Place ``host`` in ``rack`` (each host lives in one rack)."""
        if host in self._rack_of:
            raise ValueError(f"host already in rack "
                             f"{self._rack_of[host]}: {host}")
        if rack not in self.racks:
            raise KeyError(f"unknown rack: {rack}")
        self._rack_of[host] = rack
        self.racks[rack].hosts.append(host)

    @classmethod
    def tiered(cls, n_azs: int, pods_per_az: int, racks_per_pod: int,
               uplink_bps: float, oversubscription: float = 2.0,
               core_bps: Optional[float] = None) -> "Topology":
        """Build a regular three-tier fabric with bandwidth tapering.

        Racks are named ``az{i}p{j}r{k}`` under pods ``az{i}p{j}`` under
        AZs ``az{i}``. Each tier's uplink carries the tier below at
        ``1/oversubscription`` of its aggregate capacity: a pod uplink
        is ``racks_per_pod × uplink_bps / oversubscription``, an AZ
        uplink ``pods_per_az × pod_uplink / oversubscription`` — the
        taper every real Clos fabric applies per boundary.
        """
        if min(n_azs, pods_per_az, racks_per_pod) < 1:
            raise ValueError("tier sizes must be at least 1")
        if oversubscription < 1.0:
            raise ValueError("oversubscription ratio must be >= 1")
        pod_bps = racks_per_pod * uplink_bps / oversubscription
        az_bps = pods_per_az * pod_bps / oversubscription
        topo = cls(uplink_bps, core_bps=core_bps,
                   pod_uplink_bps=pod_bps, az_uplink_bps=az_bps)
        for i in range(n_azs):
            az = f"az{i}"
            topo.add_az(az)
            for j in range(pods_per_az):
                pod = f"{az}p{j}"
                topo.add_pod(pod, az=az)
                for k in range(racks_per_pod):
                    topo.add_rack(f"{pod}r{k}", pod=pod)
        return topo

    # -- queries ------------------------------------------------------------
    def rack_of(self, host: str) -> Optional[str]:
        """The rack a host lives in (None for out-of-topology hosts)."""
        return self._rack_of.get(host)

    def pod_of(self, host: str) -> Optional[str]:
        """The pod a host's rack lives in (None without a pod tier)."""
        rack = self._rack_of.get(host)
        if rack is None:
            return None
        parent = self.racks[rack].parent
        return None if parent is None else parent.name

    def az_of(self, host: str) -> Optional[str]:
        """The AZ a host's pod lives in (None without an AZ tier)."""
        pod = self.pod_of(host)
        if pod is None:
            return None
        parent = self.pods[pod].parent
        return None if parent is None else parent.name

    def hosts_in(self, rack: str) -> list[str]:
        return list(self.racks[rack].hosts)

    def hosts_in_pod(self, pod: str) -> list[str]:
        return [h for rack in self.pods[pod].racks
                for h in self.racks[rack].hosts]

    def hosts_in_az(self, az: str) -> list[str]:
        return [h for pod in self.azs[az].pods
                for h in self.hosts_in_pod(pod)]

    def same_rack(self, a: str, b: str) -> bool:
        """Both hosts assigned, and to the same rack."""
        ra, rb = self._rack_of.get(a), self._rack_of.get(b)
        return ra is not None and ra == rb

    def tier_distance(self, a: str, b: str) -> int:
        """Depth of the deepest domain that *separates* two hosts.

        0 — same rack (or either host outside the topology);
        1 — different racks in one pod (flat topologies land here:
        every pod-less rack shares the implicit root pod);
        2 — different pods in one AZ;
        3 — different AZs.

        This is the anti-affinity scale: a migration at distance *d*
        survives every correlated failure of domains deeper than *d*.
        """
        ra, rb = self._rack_of.get(a), self._rack_of.get(b)
        if ra is None or rb is None or ra == rb:
            return 0
        if self.pod_of(a) == self.pod_of(b):
            return 1
        if self.az_of(a) == self.az_of(b):
            return 2
        return 3

    def crossings(self, src: str, dst: str) -> int:
        """ToR uplink crossings on the src→dst path (0 or 2).

        Counts rack-boundary crossings only — the source rack's uplink
        and the destination rack's downlink — *not* the path length:
        modeling a core link or deeper tiers does not change how many
        ToR switches a flow escapes through. Use :meth:`path_hops` for
        the store-and-forward hop count of the full path.
        """
        ra, rb = self._rack_of.get(src), self._rack_of.get(dst)
        return 0 if ra is None or rb is None or ra == rb else 2

    def path_hops(self, src: str, dst: str) -> int:
        """Store-and-forward hops beyond the host NICs: the number of
        topology links on the src→dst path (latency accrues per hop)."""
        return len(self.path_links(src, dst))

    def path_links(self, src: str, dst: str) -> tuple[Link, ...]:
        """Topology links (beyond the host NICs) a src→dst flow crosses.

        Same rack — or either endpoint outside the topology — crosses
        nothing. Otherwise the path climbs from the source rack through
        each tier uplink up to (and not including) the lowest common
        ancestor domain, crosses the core iff the endpoints share no
        modeled domain at all and a core is modeled, and descends
        through the destination side's downlinks in mirror order.
        """
        ra, rb = self._rack_of.get(src), self._rack_of.get(dst)
        if ra is None or rb is None or ra == rb:
            return ()
        up_chain = self._chain(ra)
        down_chain = self._chain(rb)
        # Trim the shared ancestor suffix: tiers both endpoints sit
        # under are not crossed.
        while up_chain and down_chain and up_chain[-1] is down_chain[-1]:
            up_chain.pop()
            down_chain.pop()
        path = [d.up for d in up_chain]
        if self.core is not None:
            path.append(self.core)
        path.extend(d.down for d in reversed(down_chain))
        return tuple(path)

    def _chain(self, rack: str) -> list[_Domain]:
        """The rack's domain chain, innermost first (rack, pod?, az?)."""
        chain: list[_Domain] = []
        node: Optional[_Domain] = self.racks[rack]
        while node is not None:
            chain.append(node)
            node = node.parent
        return chain

    def describe(self) -> list[str]:
        """Stable one-line-per-rack rendering (for logs and tests)."""
        return [f"{name}: {','.join(rack.hosts)}"
                for name, rack in sorted(self.racks.items())]
