"""VMD server: a memory donor on an intermediate host.

Mirrors the paper's VMD server kernel module: no memory is reserved in
advance — pages are allocated only when a write request arrives — and the
server advertises its remaining free memory to clients (the paper uses
periodic updates; we let placement read the current value, which is the
zero-staleness limit of that protocol).

A server can optionally model a *disk-backed tier* (§IV-A suggests HDs or
SSDs alongside memory) by capping its service bandwidth below NIC speed.
"""

from __future__ import annotations

__all__ = ["VMDServer"]


class VMDServer:
    """Memory donor on one intermediate host.

    Parameters
    ----------
    host:
        The host name this server runs on (must exist in the network).
    capacity_bytes:
        Donatable memory.
    service_bps:
        Per-tick service-rate cap in bytes/s; ``inf`` for a pure in-memory
        server (NIC-limited), finite for a disk-backed tier.
    """

    def __init__(self, host: str, capacity_bytes: float,
                 service_bps: float = float("inf")):
        if capacity_bytes <= 0:
            raise ValueError("capacity must be positive")
        if service_bps <= 0:
            raise ValueError("service bandwidth must be positive")
        self.host = host
        self.capacity_bytes = float(capacity_bytes)
        self.service_bps = float(service_bps)
        self.used_bytes = 0.0
        #: a crashed donor serves nothing and accepts nothing; the pages
        #: it held are unreachable until it recovers (see
        #: :class:`~repro.vmd.namespace.VMDNamespace` replication)
        self.alive = True
        #: set by a content-losing crash: the stored copies are *gone*, not
        #: merely unreachable, and namespaces must reconcile (replication
        #: repair or data loss)
        self.contents_lost = False

    @property
    def free_bytes(self) -> float:
        return self.capacity_bytes - self.used_bytes

    def fail(self, lose_contents: bool = False) -> None:
        """Crash the donor host.

        By default its memory contents survive a recover — modeling a
        network partition / reboot-with-preserved-store. With
        ``lose_contents`` the donor's RAM is wiped (power loss / kernel
        panic): every copy it stored is destroyed, and namespaces must be
        told via :meth:`~repro.vmd.cluster.VMDCluster.on_server_failed` so
        they can reconcile (drop the copies, start replication repair).
        """
        self.alive = False
        if lose_contents:
            self.contents_lost = True
            self.used_bytes = 0.0

    def recover(self) -> None:
        """Rejoin the pool. A donor that lost its contents comes back
        empty but immediately re-admits writes (allocation is on-write,
        so no warm-up is needed)."""
        self.alive = True
        self.contents_lost = False

    def allocate(self, n_bytes: float) -> float:
        """Allocate up to ``n_bytes`` (on write); returns bytes accepted."""
        take = min(n_bytes, self.free_bytes)
        self.used_bytes += take
        return take

    def release(self, n_bytes: float) -> None:
        self.used_bytes = max(0.0, self.used_bytes - n_bytes)

    def __repr__(self) -> str:  # pragma: no cover
        return (f"<VMDServer on {self.host} "
                f"{self.used_bytes/2**20:.0f}/{self.capacity_bytes/2**20:.0f}"
                f" MiB>")
