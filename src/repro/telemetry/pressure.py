"""Cluster pressure index: per-host, per-rack, and cluster scalars.

The ROADMAP's predictive-orchestration item needs the planner to tell
"this rack is heating up" from "one host spiked"; this folds the four
signals that precede a watermark alert into one ``[0, 1]`` scalar per
host, averaged per rack and cluster-wide, published as gauges every
sample:

* **memory** — resident bytes over usable bytes;
* **writeback** — swap-writeback backlog over usable bytes (pages the
  host still owes its swap devices: eviction pressure);
* **network** — the NIC's granted utilization this tick (max of tx/rx);
* **fault** — the host's health state (DOWN=1, DEGRADED/RECENTLY_FAILED
  in between), when a health tracker is wired.

The weights are fixed (memory 0.55, the other three 0.15 each); the
scalar is clipped to ``[0, 1]`` so a single saturated term cannot mask
the others' headroom.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Callable, Optional

from repro.sim.periodic import PeriodicTask

__all__ = ["PressureConfig", "PressureIndex"]

#: health-state name -> fault pressure term
_HEALTH_PRESSURE = {
    "up": 0.0,
    "recently-failed": 0.3,
    "degraded": 0.6,
    "down": 1.0,
}

#: weight of each term in the host scalar
_MEM_WEIGHT = 0.55
_WRITEBACK_WEIGHT = 0.15
_NET_WEIGHT = 0.15
_FAULT_WEIGHT = 0.15


@dataclass(frozen=True)
class PressureConfig:
    interval_s: float = 1.0

    def __post_init__(self):
        if self.interval_s <= 0:
            raise ValueError("interval_s must be positive")


class PressureIndex:
    """Publishes ``pressure.host.*`` / ``pressure.rack.*`` /
    ``pressure.cluster`` gauges every ``interval_s`` of sim time.

    ``health`` is an optional callable returning a host's
    :class:`~repro.sched.health.HostHealth` (or its string value);
    without it the fault term is zero. Racks come from the world's
    topology when one is set.
    """

    def __init__(self, world, config: Optional[PressureConfig] = None,
                 health: Optional[Callable[[str], object]] = None):
        self.world = world
        self.config = config or PressureConfig()
        self.health = health
        #: last computed scalars (host -> pressure), for live readers
        self.hosts: dict[str, float] = {}
        self.racks: dict[str, float] = {}
        self.cluster = 0.0
        self._task = PeriodicTask(world.sim, self.config.interval_s,
                                  self._sample)

    def stop(self) -> None:
        self._task.cancel()

    # -- per-term signals -----------------------------------------------------
    def _net_utilization(self, granted: dict[str, float],
                         host: str) -> float:
        net = self.world.network
        if not net.has_host(host):
            return 0.0
        nic = net.nic(host)
        dt = self.world.engine.dt
        tx_cap = nic.tx.capacity_per_tick(dt)
        rx_cap = nic.rx.capacity_per_tick(dt)
        tx, rx = granted.get(host, (0.0, 0.0))
        util_tx = tx / tx_cap if tx_cap > 0 else 1.0
        util_rx = rx / rx_cap if rx_cap > 0 else 1.0
        return max(util_tx, util_rx)

    def _granted_by_host(self) -> dict[str, tuple]:
        """This tick's granted bytes per host as ``(tx, rx)``."""
        out: dict[str, tuple] = {}
        for f in self.world.network.flows:
            g = f.granted
            if g <= 0:
                continue
            tx, rx = out.get(f.src, (0.0, 0.0))
            out[f.src] = (tx + g, rx)
            tx, rx = out.get(f.dst, (0.0, 0.0))
            out[f.dst] = (tx, rx + g)
        return out

    def host_pressure(self, name: str,
                      granted: Optional[dict] = None) -> float:
        """One host's scalar, computed from current state."""
        mem = self.world.hosts[name].memory
        usable = mem.usable_bytes()
        mem_term = mem.total_resident_bytes() / usable if usable > 0 \
            else 1.0
        backlog = sum(b.writeback_backlog for b in mem.bindings)
        wb_term = backlog / usable if usable > 0 else 1.0
        if granted is None:
            granted = self._granted_by_host()
        net_term = self._net_utilization(granted, name)
        fault_term = 0.0
        if self.health is not None:
            state = self.health(name)
            fault_term = _HEALTH_PRESSURE.get(
                getattr(state, "value", state), 0.0)
        p = (_MEM_WEIGHT * mem_term
             + _WRITEBACK_WEIGHT * min(wb_term, 1.0)
             + _NET_WEIGHT * min(net_term, 1.0)
             + _FAULT_WEIGHT * fault_term)
        return min(max(p, 0.0), 1.0)

    # -- sampling -------------------------------------------------------------
    def _sample(self, now: float) -> None:
        world = self.world
        metrics = world.metrics
        granted = self._granted_by_host()
        self.hosts = {name: self.host_pressure(name, granted)
                      for name in sorted(world.hosts)}
        rack_members: dict[str, list[float]] = {}
        if world.topology is not None:
            for name, p in self.hosts.items():
                rack = world.topology.rack_of(name)
                if rack is not None:
                    rack_members.setdefault(rack, []).append(p)
        self.racks = {r: sum(ps) / len(ps)
                      for r, ps in sorted(rack_members.items())}
        self.cluster = (sum(self.hosts.values()) / len(self.hosts)) \
            if self.hosts else 0.0
        if metrics.enabled:
            for name, p in self.hosts.items():
                metrics.gauge(f"pressure.host.{name}").set(p)
            for rack, p in self.racks.items():
                metrics.gauge(f"pressure.rack.{rack}").set(p)
            metrics.gauge("pressure.cluster").set(self.cluster)
        tracer = world.tracer
        if tracer.enabled:
            tracer.instant(
                "pressure", "sample", cat="telemetry",
                args={"cluster": round(self.cluster, 6),
                      "peak_host": max(self.hosts, key=self.hosts.get)
                      if self.hosts else ""})
