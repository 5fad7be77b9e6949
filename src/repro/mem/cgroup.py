"""Memory cgroups: per-VM reservation plus swap I/O accounting.

The paper places each KVM/QEMU process in its own cgroup (§IV-B) so that
(a) the VM's resident memory is capped at the cgroup reservation, and
(b) per-VM swap activity can be read back (via ``iostat`` on the per-VM
swap device, §IV-D). :class:`Cgroup` models exactly those two roles: the
reservation is consulted by the :class:`~repro.mem.manager.HostMemoryManager`
for eviction decisions, and read/write page counters feed the WSS tracker.
"""

from __future__ import annotations

__all__ = ["Cgroup"]


class Cgroup:
    """Resource-accounting group for one VM.

    Parameters
    ----------
    name:
        Diagnostic label (the paper uses one cgroup per KVM/QEMU process).
    reservation_bytes:
        Maximum bytes the VM may keep resident; excess is evicted to the
        VM's swap device.
    """

    def __init__(self, name: str, reservation_bytes: float):
        if reservation_bytes < 0:
            raise ValueError("reservation must be non-negative")
        self.name = name
        self._reservation = float(reservation_bytes)
        #: lifetime swap traffic in bytes (monotonic counters, iostat-style)
        self.swap_in_bytes_total = 0.0
        self.swap_out_bytes_total = 0.0

    # -- reservation -----------------------------------------------------------
    @property
    def reservation_bytes(self) -> float:
        return self._reservation

    def set_reservation(self, new_bytes: float) -> None:
        """Adjust the reservation (the WSS controller's actuator, §IV-D)."""
        if new_bytes < 0:
            raise ValueError("reservation must be non-negative")
        self._reservation = float(new_bytes)

    # -- accounting -----------------------------------------------------------
    def account_swap_in(self, n_bytes: float) -> None:
        self.swap_in_bytes_total += n_bytes

    def account_swap_out(self, n_bytes: float) -> None:
        self.swap_out_bytes_total += n_bytes

    def swap_traffic_total(self) -> float:
        """Total swap bytes moved (in + out), the iostat signal."""
        return self.swap_in_bytes_total + self.swap_out_bytes_total

    def __repr__(self) -> str:  # pragma: no cover
        return (f"<Cgroup {self.name} res={self._reservation/2**20:.0f}MiB>")
