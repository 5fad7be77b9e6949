"""Host CPU arbiter: vCPU time sharing among colocated VMs.

The paper's hosts have twelve 2.1 GHz Xeons and its experiments keep the
aggregate vCPU count below that, so CPU contention never binds there —
but a faithful host model must still enforce the physical core budget
when consolidation pushes past it. Each VM's workload declares the CPU
seconds it wants per tick; the arbiter divides ``cores × dt`` seconds
max-min fairly (CFS-like; a VM's own vCPU count already caps its demand).

The single-share fast path grants ``min(demand, capacity)`` directly —
bit-identical to ``fair_share`` on one demand (both branches of the
water-filling reduce to exactly that comparison) — because most hosts in
the cluster scenarios run one VM and the per-tick list/array round trip
was pure overhead at scale.
"""

from __future__ import annotations

from repro.sim.periodic import Lane, Parkable
from repro.util import fair_share

__all__ = ["CpuArbiter", "CpuShare"]


class CpuShare(Lane):
    """One VM's lane on the host CPU (demand/grant in cpu-seconds)."""

    __slots__ = ()


class CpuArbiter(Parkable):
    """Divides a host's core-seconds per tick among registered shares;
    parks after an arbitration that saw no demand."""

    def __init__(self, host: str, cores: int):
        if cores <= 0:
            raise ValueError("cores must be positive")
        self.host = host
        self.cores = int(cores)
        self._shares: list[CpuShare] = []
        self._needs_compact = False

    def open_share(self, name: str) -> CpuShare:
        share = CpuShare(name)
        share._owner = self
        self._shares.append(share)
        return share

    def arbitrate(self, dt: float) -> None:
        shares = self._shares
        if self._needs_compact:
            shares = self._shares = [s for s in shares if s.active]
            self._needs_compact = False
        if not shares:
            self.park()
            return
        capacity = self.cores * dt
        if len(shares) == 1:
            s = shares[0]
            d = s._demand
            g = d if d <= capacity else capacity
            s.granted = g
            s.total_granted += g
            s._demand = 0.0
            if not d > 0:
                self.park()
            return
        demands = [s._demand for s in shares]
        grants = fair_share(demands, capacity)
        for share, g in zip(shares, grants):
            share.granted = float(g)
            share.total_granted += float(g)
            share._demand = 0.0
        if not any(demands):
            self.park()
