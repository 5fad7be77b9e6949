"""Swap block devices with bandwidth arbitration.

The paper's baselines swap to a 30 GB partition of a SATA SSD shared by
all VMs and by the Migration Manager; the contention on that device is the
direct cause of the thrashing behaviour in Figure 7. We model the device
as two capacity pools (read and write) divided max-min fairly among named
:class:`DeviceQueue` handles each tick, with an efficiency penalty when
reads and writes are in flight simultaneously (mixed I/O degrades SSD
throughput).

The same :class:`DeviceQueue` handle is the interface the VMD-backed
per-VM swap devices implement (see :mod:`repro.vmd.device`), so consumers
— workloads faulting pages in, the memory manager writing evictions back,
migration managers reading swapped pages — are agnostic to the backing
store, exactly like the paper's block-device abstraction (§IV-A).
"""

from __future__ import annotations

from typing import Literal, Optional, Protocol, runtime_checkable

from repro.sim.periodic import Lane, Parkable
from repro.util import fair_share

__all__ = ["DeviceQueue", "SSDSwapDevice", "SwapBackend"]

Kind = Literal["read", "write"]


class DeviceQueue(Lane):
    """One requester's lane on a device.

    ``demand`` is set (or accumulated) during pre-tick and wakes the
    device; ``granted`` is filled by the device's arbitration, which
    also consumes the demand.
    """

    __slots__ = ("kind",)

    def __init__(self, name: str, kind: Kind):
        if kind not in ("read", "write"):
            raise ValueError(f"kind must be 'read' or 'write': {kind}")
        super().__init__(name)
        self.kind = kind

    def __repr__(self) -> str:  # pragma: no cover
        return f"<DeviceQueue {self.name} {self.kind}>"


@runtime_checkable
class SwapBackend(Protocol):
    """What a per-VM (or shared) swap device must provide."""

    def open_queue(self, name: str, kind: Kind,
                   host: Optional[str] = None) -> DeviceQueue: ...


class SSDSwapDevice(Parkable):
    """A locally-attached SSD swap device (the baselines' backing store).

    Register with the tick engine as an **arbiter**; it parks after an
    arbitration that saw no demand.

    Parameters
    ----------
    read_bps / write_bps:
        Sequential read/write bandwidth in bytes/s.
    mixed_efficiency:
        Multiplier applied to both pools when reads and writes are both
        demanded in the same tick (default 0.7 — mixed random I/O is
        slower than pure sequential streams).
    capacity_bytes:
        Size of the swap partition; writes beyond it raise, mirroring a
        full swap device (the paper provisions 30 GB).
    """

    def __init__(self, name: str, read_bps: float = 400e6,
                 write_bps: float = 200e6, mixed_efficiency: float = 0.7,
                 capacity_bytes: float = float("inf")):
        if read_bps <= 0 or write_bps <= 0:
            raise ValueError("device bandwidth must be positive")
        if not 0 < mixed_efficiency <= 1:
            raise ValueError("mixed_efficiency must be in (0, 1]")
        self.name = name
        self.read_bps = float(read_bps)
        self.write_bps = float(write_bps)
        self.mixed_efficiency = float(mixed_efficiency)
        self.capacity_bytes = float(capacity_bytes)
        self.used_bytes = 0.0
        #: fault-injection multiplier on both bandwidth pools (wear /
        #: thermal throttling / controller resets degrade service rate)
        self.degrade_factor = 1.0
        self._queues: list[DeviceQueue] = []
        self._needs_compact = False

    # -- queue management -------------------------------------------------------
    def open_queue(self, name: str, kind: Kind,
                   host: Optional[str] = None) -> DeviceQueue:
        """Create a requester lane. ``host`` is ignored: the device is local."""
        q = DeviceQueue(name, kind)
        q._owner = self
        self._queues.append(q)
        return q

    # -- space accounting (the namespace analogue for a shared device) -----------
    def allocate(self, n_bytes: float) -> None:
        if self.used_bytes + n_bytes > self.capacity_bytes:
            raise RuntimeError(
                f"swap device {self.name} full: "
                f"{self.used_bytes + n_bytes} > {self.capacity_bytes}")
        self.used_bytes += n_bytes

    def release(self, n_bytes: float) -> None:
        self.used_bytes = max(0.0, self.used_bytes - n_bytes)

    # -- fault injection -----------------------------------------------------
    def degrade(self, factor: float) -> None:
        """Scale both bandwidth pools to ``factor`` × nominal."""
        if not 0.0 < factor <= 1.0:
            raise ValueError(f"degradation factor must be in (0, 1]: {factor}")
        self.degrade_factor = float(factor)

    def restore(self) -> None:
        self.degrade_factor = 1.0

    # -- arbitration ------------------------------------------------------------
    def arbitrate(self, dt: float) -> None:
        if self._needs_compact:
            self._queues = [q for q in self._queues if q.active]
            self._needs_compact = False
        reads = [q for q in self._queues if q.kind == "read"]
        writes = [q for q in self._queues if q.kind == "write"]
        read_demand = sum(q._demand for q in reads)
        write_demand = sum(q._demand for q in writes)
        eff = (self.mixed_efficiency
               if read_demand > 0 and write_demand > 0 else 1.0)
        eff *= self.degrade_factor
        self._grant(reads, self.read_bps * dt * eff)
        self._grant(writes, self.write_bps * dt * eff)
        if not (read_demand > 0 or write_demand > 0):
            self.park()  # every grant just written is 0

    @staticmethod
    def _grant(queues: list[DeviceQueue], capacity: float) -> None:
        # A lane closed between compaction and here must get nothing; a
        # closed lane's demand is zero, and max-min water-filling gives a
        # zero demand a zero grant without shifting anyone else's, so
        # filtering is grant-identical to the unfiltered division.
        queues = [q for q in queues if q.active]
        if not queues:
            return
        grants = fair_share([q._demand for q in queues], capacity)
        for q, g in zip(queues, grants):
            q.granted = float(g)
            q.total_granted += float(g)
            q._demand = 0.0
