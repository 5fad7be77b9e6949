"""Destination fault handling (the UMEM driver + UMEMD process, §IV-F).

After the CPU state switches to the destination, the VM faults on pages
it does not yet have. The paper's UMEMD thread routes each fault:

* swapped bit set → read the page from the per-VM swap device (VMD);
* otherwise → request the page from the source over a dedicated,
  prioritized channel.

In this reproduction the *swap-device* path is simply the VM's normal
fault path at the destination (its binding's fault queue points at the
portable per-VM device), so :class:`UmemFaultHandler` implements the
remaining piece: the source-owed pages and the demand-paging channel,
including the coupling to the **source's** swap device — a demand-paged
page that is swapped out at the source must first be read from swap
there, which is why post-copy faults are so expensive while the source
is thrashing (§V-C).
"""

from __future__ import annotations

from typing import TYPE_CHECKING, Optional

import numpy as np

from repro.mem.device import SwapBackend
from repro.mem.pages import PageSet
from repro.net.network import Network
from repro.obs.tracer import NULL_TRACER
from repro.telemetry.instruments import NULL_METRICS

if TYPE_CHECKING:  # pragma: no cover - typing only
    from repro.core.base import MigrationReport, PendingScan

__all__ = ["UmemFaultHandler"]


class UmemFaultHandler:
    """Implements :class:`repro.workloads.FaultRouter` for the post-copy
    phase of post-copy, Agile and scatter-gather migration, and for a
    clone replica's fetch of the pages its parent still owes it.

    ``metrics`` is the live-metrics sink (``NULL_METRICS`` when None).
    """

    def __init__(self, network: Network, src_host: str, dst_host: str,
                 vm_name: str, scan: PendingScan, src_pages: PageSet,
                 src_backend: SwapBackend, report: MigrationReport,
                 priority: int = 0, tracer=None, track: str = "",
                 metrics=None):
        self.scan = scan
        self.src_pages = src_pages
        self.report = report
        self.flow = network.open_flow(src_host, dst_host, priority=priority,
                                      name=f"umem:{vm_name}")
        self.read_q = src_backend.open_queue(f"{vm_name}.demand.read",
                                             "read", host=src_host)
        self.tracer = tracer if tracer is not None else NULL_TRACER
        self.track = track or f"vm:{vm_name}"
        self._sigma = 0.0
        self.metrics = metrics if metrics is not None else NULL_METRICS

    # -- FaultRouter protocol ---------------------------------------------------
    def source_pending_mask(self) -> Optional[np.ndarray]:
        return self.scan.pending

    def demand_source(self, n_bytes: float) -> None:
        pending = self.scan.pending
        n_pending = int(np.count_nonzero(pending))
        if n_pending > 0:
            n_swapped = int(np.count_nonzero(pending & self.src_pages.swapped))
            self._sigma = n_swapped / n_pending
        else:
            self._sigma = 0.0
        self.flow.demand += n_bytes
        if self._sigma > 0:
            self.read_q.demand += n_bytes * self._sigma

    def granted_source(self) -> float:
        g = self.flow.granted
        if self._sigma > 0:
            g = min(g, self.read_q.granted / self._sigma)
        return g

    def notify_fetched(self, idx: np.ndarray) -> None:
        self.scan.remove(idx)
        nbytes = float(idx.size) * self.src_pages.page_size
        self.report.demand_bytes += nbytes
        self.report.pages_demand_fetched += int(idx.size)
        if self.metrics.enabled and idx.size:
            self.metrics.rate("umem.demand_fetch_bytes").mark(nbytes)
        if self.tracer.enabled and idx.size:
            # cause attribution for fault-service cost: sigma is the
            # swapped fraction of the still-pending set — high sigma
            # means the source swap device is on the critical path
            self.tracer.instant(
                self.track, "demand-fetch", cat="umem",
                args={"pages": int(idx.size), "bytes": nbytes,
                      "sigma": float(self._sigma)})

    def close(self) -> None:
        self.flow.close()
        self.read_q.close()
