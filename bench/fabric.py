"""Flow churn over a tiered datacenter fabric, on the public network API.

The recipe is the 1000-host three-tier fabric of the scale harness:
migration flows that open, live for a while and close, a share of them
with a reverse priority-0 demand-paging flow; mostly idle per-host
application channels; VMD-style fan-in lanes from every host to one
server host; a rack partition that splits and heals; and a NIC that
degrades and recovers. All choices come from one generator seeded by
the benchmark seed, so a seed fixes the flow population and the demand
sequence tick for tick.

The network is built with its default arguments, so the benchmark
always measures the arbiter that ships as the default.
"""

from __future__ import annotations

import numpy as np

from repro.net import Network
from repro.sched import Topology


class Churn:
    """One fabric plus the seeded churn replayed onto it."""

    def __init__(self, p: dict, seed: int):
        self.p = p
        self.rng = np.random.default_rng(seed)
        self.net = Network(default_bandwidth_bps=p["nic_bps"], latency_s=2e-4)
        topo = Topology.tiered(p["n_azs"], p["pods_per_az"],
                               p["racks_per_pod"], uplink_bps=p["uplink_bps"],
                               oversubscription=p["oversubscription"])
        self.hosts: list[str] = []
        self.racks: list[list[str]] = []
        for rack in topo.racks:
            members = [f"{rack}h{h}" for h in range(p["hosts_per_rack"])]
            for name in members:
                self.net.add_host(name)
                topo.assign(name, rack)
            self.hosts.extend(members)
            self.racks.append(members)
        self.net.set_topology(topo)
        #: every flow ever opened, in open order (the digest reads them)
        self.opened = []
        self.migrations = 0
        #: migration slot -> (migration flow, paging flow or None)
        self.slots: list = [None] * p["migration_slots"]
        self.expiry = np.zeros(p["migration_slots"], dtype=np.int64)
        for slot in range(p["migration_slots"]):
            self._open_slot(slot, tick=0)
        self.app = [self._open(name, self._other(name),
                               1 if k % 2 == 0 else 2, f"app:{name}:{k}")
                    for name in self.hosts
                    for k in range(p["idle_channels_per_host"])]
        self.fanin = []
        for name in self.hosts:
            server = self._other(name)
            self.fanin.extend(self._open(name, server, 1, f"vmd:{name}:{k}")
                              for k in range(p["fanin_lanes"]))
        self._partitioned = False
        self._degraded = None

    # -- churn -------------------------------------------------------------------
    def _open(self, src: str, dst: str, priority: int, name: str):
        flow = self.net.open_flow(src, dst, priority=priority, name=name)
        self.opened.append(flow)
        return flow

    def _other(self, host: str) -> str:
        while True:
            other = self.hosts[int(self.rng.integers(len(self.hosts)))]
            if other != host:
                return other

    def _open_slot(self, slot: int, tick: int) -> None:
        p = self.p
        src = self.hosts[int(self.rng.integers(len(self.hosts)))]
        dst = self._other(src)
        mig = self._open(src, dst, 1, f"mig:{slot}")
        paging = None
        if self.rng.random() < p["paging_fraction"]:
            paging = self._open(dst, src, 0, f"page:{slot}")
        self.slots[slot] = (mig, paging)
        self.migrations += 1
        self.expiry[slot] = tick + int(self.rng.integers(
            p["migration_ticks_min"], p["migration_ticks_max"]))

    def _step(self, tick: int) -> None:
        """Churn, faults and this tick's demands."""
        p = self.p
        for slot in np.flatnonzero(self.expiry <= tick):
            for flow in self.slots[slot]:
                if flow is not None:
                    flow.close()
            self._open_slot(int(slot), tick)
        if tick and tick % p["partition_every"] == 0:
            if self._partitioned:
                self.net.clear_partition()
            else:
                rack = self.racks[int(self.rng.integers(len(self.racks)))]
                self.net.set_partition([rack])
            self._partitioned = not self._partitioned
        if tick and tick % p["degrade_every"] == 0:
            if self._degraded is not None:
                self._degraded.restore()
                self._degraded = None
            else:
                nic = self.net.nic(
                    self.hosts[int(self.rng.integers(len(self.hosts)))])
                link = nic.tx if self.rng.random() < 0.5 else nic.rx
                link.degrade(float(self.rng.uniform(0.2, 0.8)))
                self._degraded = link
        per_tick = p["nic_bps"] * p["dt"]
        scale = self.rng.uniform(0.2, 1.0, size=len(self.slots))
        for (mig, paging), s in zip(self.slots, scale):
            mig.demand = float(s) * per_tick
            if paging is not None:
                paging.demand = 0.05 * per_tick
        bursts = self.rng.random(len(self.app)) < p["app_burst_prob"]
        sizes = self.rng.uniform(0.05, 0.4, size=len(self.app))
        for i in np.flatnonzero(bursts):
            self.app[i].demand = float(sizes[i]) * per_tick
        on = self.rng.random(len(self.fanin)) < p["fanin_active_prob"]
        lanes = self.rng.uniform(0.02, 0.2, size=len(self.fanin))
        for i in np.flatnonzero(on):
            self.fanin[i].demand = float(lanes[i]) * per_tick

    # -- execution ---------------------------------------------------------------
    def run(self, probe=None) -> list[str]:
        """Run every tick; returns grant violations when ``probe`` is None.

        With a probe the loop is timed and nothing is checked. Without
        one, every tick is verified: each grant is at most its flow's
        demand and each link carries at most its capacity × dt.
        """
        dt = self.p["dt"]
        ticks = self.p["ticks"]
        if probe is not None:
            probe.begin_run(lambda: ticks)
            for tick in range(ticks):
                self._step(tick)
                self.net.arbitrate(dt)
            return []
        over_demand: list[str] = []
        over_capacity: list[str] = []
        for tick in range(ticks):
            self._step(tick)
            flows = self.net.flows
            demand = [f.demand for f in flows]
            self.net.arbitrate(dt)
            load: dict = {}
            for f, d in zip(flows, demand):
                if f.granted > d * (1 + 1e-12):
                    over_demand.append(f"tick {tick}: {f.name} granted "
                                       f"{f.granted!r} > demand {d!r}")
                for link in f.links:
                    load[link] = load.get(link, 0.0) + f.granted
            for link, carried in load.items():
                cap = link.capacity_bps * dt
                if carried > cap * (1 + 1e-9):
                    over_capacity.append(f"tick {tick}: {link.name} carried "
                                         f"{carried!r} > capacity {cap!r}")
        return [f"{len(found)} {what}, first: {found[0]}"
                for what, found in (("grants above demand", over_demand),
                                    ("link loads above capacity",
                                     over_capacity))
                if found]

    def outputs(self) -> dict:
        """Lifetime bytes per flow and per NIC link (the digest input)."""
        return {
            "flows": [f.total_bytes for f in self.opened],
            "nics": [(self.net.nic(h).tx.bytes_carried,
                      self.net.nic(h).rx.bytes_carried) for h in self.hosts],
        }
