"""Fault schedules: what breaks, when, and for how long.

A schedule is an immutable, time-ordered list of :class:`FaultSpec`
entries. Schedules can be written by hand (timed faults for targeted
tests) or drawn from a seeded RNG (:meth:`FaultSchedule.random` — chaos
sweeps). Either way the resulting timeline is a pure value: replaying the
same schedule against the same world produces the identical execution.
"""

from __future__ import annotations

import enum
from dataclasses import dataclass
from typing import Iterable, Iterator, Optional, Sequence

import numpy as np

__all__ = ["FaultKind", "FaultSpec", "FaultSchedule"]


class FaultKind(enum.Enum):
    #: a host dies: NIC down, every VM on it is lost. ``duration`` models
    #: a reboot — the NIC comes back, the VMs do not.
    HOST_CRASH = "host-crash"
    #: a host's NIC goes fully dark (both directions), then recovers
    NIC_DOWN = "nic-down"
    #: a host's NIC runs at ``severity`` × nominal (flaky optics,
    #: auto-negotiation fallback)
    NIC_DEGRADED = "nic-degraded"
    #: the switch fabric splits into groups that cannot exchange bytes;
    #: ``target`` encodes the groups as ``"a,b|c"`` (unnamed hosts form
    #: one implicit extra group)
    PARTITION = "partition"
    #: a VMD donor host crashes; ``lose_contents`` decides whether the
    #: donated pages are merely unreachable or destroyed
    VMD_CRASH = "vmd-crash"
    #: an SSD swap device serves at ``severity`` × nominal bandwidth
    #: (thermal throttling, controller resets)
    SSD_DEGRADED = "ssd-degraded"
    #: correlated rack failure (ToR death, PDU trip): ``target`` names a
    #: rack in the world's topology; every host in it crashes at once —
    #: NICs dark, VMs lost, VMD donors failed — and the rack's uplink
    #: goes down. ``duration`` models power/ToR restoration: the links
    #: and NICs come back, the VMs do not.
    RACK_CRASH = "rack-crash"
    #: correlated pod failure (aggregation switch death, power-bus trip):
    #: ``target`` names a pod; every rack in it suffers a RACK_CRASH at
    #: once and the pod's uplink goes dark. Same restoration semantics
    #: as RACK_CRASH: links, NICs and donors return, VMs do not.
    POD_CRASH = "pod-crash"
    #: an availability zone splits off the fabric (spine failure,
    #: inter-facility fiber cut): ``target`` names an AZ; its uplink
    #: goes dark and its hosts are partitioned from everyone else.
    #: Nothing dies — flows stall until ``duration`` heals the split.
    AZ_PARTITION = "az-partition"


#: kinds whose ``severity`` field is meaningful (a capacity factor)
_DEGRADING = (FaultKind.NIC_DEGRADED, FaultKind.SSD_DEGRADED)


@dataclass(frozen=True)
class FaultSpec:
    """One fault: kind, target, injection time, and optional recovery.

    Parameters
    ----------
    kind:
        What breaks.
    target:
        Host name (HOST_CRASH, NIC_*, VMD_CRASH), SSD device name
        (SSD_DEGRADED), a ``"a,b|c"`` group encoding (PARTITION), or a
        topology fault-domain name (RACK_CRASH / POD_CRASH /
        AZ_PARTITION).
    at:
        Injection time (simulation seconds).
    duration:
        Seconds until the fault is reverted; ``None`` = permanent.
    severity:
        Remaining-capacity factor for the ``*_DEGRADED`` kinds.
    lose_contents:
        VMD_CRASH only: the donor's stored pages are destroyed rather
        than merely unreachable (power loss vs network partition).
    """

    kind: FaultKind
    target: str
    at: float
    duration: Optional[float] = None
    severity: float = 0.5
    lose_contents: bool = False

    def __post_init__(self):
        if self.at < 0:
            raise ValueError(f"fault time must be non-negative: {self.at}")
        if self.duration is not None and self.duration <= 0:
            raise ValueError(f"fault duration must be positive: "
                             f"{self.duration}")
        if self.kind in _DEGRADING and not 0.0 < self.severity <= 1.0:
            raise ValueError(
                f"severity (remaining-capacity factor) must be in (0, 1]: "
                f"{self.severity}")
        if not self.target:
            raise ValueError("fault target must be non-empty")

    def describe(self) -> str:
        parts = [f"{self.kind.value} @{self.at:g}s target={self.target}"]
        if self.duration is not None:
            parts.append(f"for {self.duration:g}s")
        if self.kind in _DEGRADING:
            parts.append(f"factor={self.severity:g}")
        if self.kind is FaultKind.VMD_CRASH and self.lose_contents:
            parts.append("contents-lost")
        return " ".join(parts)


class FaultSchedule:
    """An ordered collection of faults to inject.

    Iteration yields specs sorted by ``(at, kind, target)`` so two
    schedules built from the same entries are indistinguishable — the
    injector's behaviour depends only on the *set* of faults.
    """

    def __init__(self, specs: Iterable[FaultSpec] = ()):
        self._specs: list[FaultSpec] = list(specs)

    def add(self, spec: FaultSpec) -> "FaultSchedule":
        """Append a fault (builder style; returns self)."""
        self._specs.append(spec)
        return self

    @property
    def specs(self) -> tuple[FaultSpec, ...]:
        return tuple(sorted(self._specs,
                            key=lambda s: (s.at, s.kind.value, s.target)))

    def __iter__(self) -> Iterator[FaultSpec]:
        return iter(self.specs)

    def __len__(self) -> int:
        return len(self._specs)

    def describe(self) -> list[str]:
        """Stable human-readable timeline (used by determinism checks)."""
        return [s.describe() for s in self.specs]

    @classmethod
    def random(cls, rng: np.random.Generator, horizon_s: float, *,
               hosts: Sequence[str] = (),
               vmd_hosts: Sequence[str] = (),
               ssds: Sequence[str] = (),
               mean_interval_s: float = 60.0,
               mean_duration_s: float = 10.0,
               lose_contents: bool = True,
               allow_host_crash: bool = False) -> "FaultSchedule":
        """Draw a stochastic fault timeline from a seeded generator.

        Inter-arrival times are exponential with ``mean_interval_s``;
        each event picks a kind uniformly among those with eligible
        targets, a target uniformly, and an exponential duration. Host
        crashes are opt-in (they are usually terminal for the VMs
        involved, which drowns out the recoverable-fault statistics).
        The same generator state always yields the same schedule.
        """
        if horizon_s <= 0:
            raise ValueError("horizon must be positive")
        menu: list[FaultKind] = []
        if hosts:
            menu += [FaultKind.NIC_DOWN, FaultKind.NIC_DEGRADED]
            if allow_host_crash:
                menu.append(FaultKind.HOST_CRASH)
        if vmd_hosts:
            menu.append(FaultKind.VMD_CRASH)
        if ssds:
            menu.append(FaultKind.SSD_DEGRADED)
        if not menu:
            raise ValueError("no eligible fault targets supplied")
        schedule = cls()
        t = float(rng.exponential(mean_interval_s))
        while t < horizon_s:
            kind = menu[int(rng.integers(len(menu)))]
            if kind is FaultKind.VMD_CRASH:
                target = vmd_hosts[int(rng.integers(len(vmd_hosts)))]
            elif kind is FaultKind.SSD_DEGRADED:
                target = ssds[int(rng.integers(len(ssds)))]
            else:
                target = hosts[int(rng.integers(len(hosts)))]
            duration = float(rng.exponential(mean_duration_s)) + 1e-3
            severity = float(rng.uniform(0.05, 0.8))
            schedule.add(FaultSpec(
                kind=kind, target=target, at=round(t, 6),
                duration=round(duration, 6), severity=round(severity, 6),
                lose_contents=(lose_contents
                               if kind is FaultKind.VMD_CRASH else False)))
            t += float(rng.exponential(mean_interval_s))
        return schedule
