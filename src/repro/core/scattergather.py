"""Scatter-Gather live migration (extension; the authors' companion
system, cited as [22] — "Fast server deprovisioning through
scatter-gather live migration of virtual machines").

When the *source* must be evacuated as fast as possible (deprovisioning,
imminent maintenance) and the destination is slow or resource
constrained, direct migration is bottlenecked by the receiver.
Scatter-Gather decouples the two sides using the same per-VM portable
swap device Agile relies on:

* **scatter** — the source suspends the VM, hands the CPU state to the
  destination, and then *stages* every resident page onto the VMD
  intermediaries at full source-NIC speed. The source is free as soon as
  the scatter completes — independent of the destination's capacity;
* **gather** — the destination resumes the VM immediately and pulls
  pages as it needs them: demand faults on not-yet-scattered pages go to
  the source, everything staged (and everything that was already cold)
  is read from the VMD; an optional background *gather* stream prefetches
  the rest at a configurable rate.

The interesting metric is :attr:`MigrationReport.source_free_time` —
how quickly the source's memory pressure is gone.
"""

from __future__ import annotations

from typing import Optional

import numpy as np

from repro.core.base import MigrationManager, MigrationPhase
from repro.core.umem import UmemFaultHandler
from repro.mem.device import DeviceQueue
from repro.vmd.namespace import VMDNamespace

__all__ = ["ScatterGatherMigration"]

#: wire bytes for one page-location message (the dest must learn that a
#: page now lives on the VMD)
LOCATION_MSG_BYTES = 16


class ScatterGatherMigration(MigrationManager):
    """Evacuate the source through the per-VM swap device.

    Requires the VM's swap backend to be a portable
    :class:`~repro.vmd.VMDNamespace` (like Agile). ``gather_bps``
    enables background prefetching at the destination; ``None`` leaves
    cold pages to demand faults only.
    """

    technique = "scatter-gather"

    def __init__(self, *args, gather_bps: Optional[float] = 40e6,
                 **kwargs):
        super().__init__(*args, **kwargs)
        if not isinstance(self.src_binding.backend, VMDNamespace):
            raise TypeError(
                "scatter-gather requires a portable per-VM swap device "
                "(VMDNamespace backend)")
        self.namespace: VMDNamespace = self.src_binding.backend
        self.gather_bps = gather_bps
        self.scatter_q: Optional[DeviceQueue] = None
        self.gather_q: Optional[DeviceQueue] = None
        self.umem: Optional[UmemFaultHandler] = None
        self._gathering = False
        #: async span id: the gather outlives the migration span
        self._gather_span = 0
        # the gather outlives the report too: the manager keeps ticking
        # until it ends
        self.ticks_done = self.sim.event(f"mig:{self.vm.name}:gathered")

    # -- lifecycle ----------------------------------------------------------
    def start(self) -> None:
        # Only resident pages need scattering; cold pages already live on
        # the (portable) per-VM swap device.
        self._start(self.src_pages.present)
        pages = self.src_pages
        self.umem = self._open_umem()
        self.scatter_q = self.namespace.open_queue(
            f"{self.vm.name}.scatter", "write", host=self.src.name)
        self._suspend_vm()
        self.phase = MigrationPhase.STOPCOPY
        self._trace_phase("handover",
                          {"resident_pages": int(self.scan.remaining)})
        # CPU state + the swap-offset table for already-cold pages.
        already_cold = int(np.count_nonzero(pages.swapped))
        meta = self.vm.cpu_state_bytes + already_cold * LOCATION_MSG_BYTES
        self.report.metadata_bytes += meta
        self.report.pages_skipped_swapped += already_cold
        self._cold_at_start = pages.swapped.copy()
        self.stream.send(meta, on_complete=lambda _job: self._cpu_arrived())

    def _abort_cleanup(self) -> None:
        if self.umem is not None:
            self.umem.close()
        if self.scatter_q is not None:
            self.scatter_q.close()
        if self.gather_q is not None:
            self.gather_q.close()
        self._gathering = False
        if self._gather_span:
            self.tracer.async_end(self._gather_span,
                                  args={"aborted": True})
            self._gather_span = 0
        self._end_ticks()

    def _end_ticks(self) -> None:
        if not self.ticks_done.triggered:
            self.ticks_done.succeed(self.report)

    def _cpu_arrived(self) -> None:
        self._switch_to_destination()
        # Every page that was cold at the source is immediately readable
        # from the per-VM swap device at the destination.
        self.dst_pages.swapped |= self._cold_at_start
        self.dst_pages.swap_clean |= self._cold_at_start
        if self.workload is not None:
            self.workload.fault_router = self.umem
        self.phase = MigrationPhase.PUSH
        self._trace_phase("scatter",
                          {"remaining_pages": int(self.scan.remaining)})

    # -- tick protocol ---------------------------------------------------------
    def pre_tick(self, dt: float) -> None:
        super().pre_tick(dt)
        if self.phase is MigrationPhase.PUSH and not self.scan.exhausted():
            remaining = float(self.scan.remaining) * self._page_size()
            self.scatter_q.demand += min(
                remaining, 4.0 * self.config.backlog_cap_bytes)
        if self._gathering and self.gather_bps is not None:
            # never gather past the destination reservation: pulling
            # pages the cgroup will immediately re-evict just churns
            room = self._gather_room()
            if room > 0:
                self.gather_q.demand += min(self.gather_bps * dt, room)

    def commit_tick(self, dt: float) -> None:
        super().commit_tick(dt)
        if self.phase is MigrationPhase.PUSH:
            self._scatter_tick()
        if self._gathering:
            self._gather_tick()

    # -- scatter (source side) ---------------------------------------------------
    def _scatter_tick(self) -> None:
        k = int(self.scatter_q.granted // self._page_size())
        # location messages ride the control stream
        self._send_pages("scatter_bytes", k, msg_bytes=LOCATION_MSG_BYTES,
                         deliver=self._mark_staged)
        if self.scan.exhausted() and self.report.source_free_time is None:
            self.stream.send(0.0, on_complete=lambda _job:
                             self._source_freed())

    def _mark_staged(self, idx: np.ndarray) -> None:
        """The destination learns these pages are now on the VMD."""
        live = idx[~self.dst_pages.present[idx]]
        self.dst_pages.swapped[live] = True
        self.dst_pages.swap_clean[live] = True

    def _source_freed(self) -> None:
        """Scatter complete: the source holds no VM state any more."""
        self.report.source_free_time = self.sim.now
        self.scatter_q.close()
        if self.tracer.enabled:
            self.tracer.instant(
                self._track, "source-free", cat="migration",
                args={"scatter_bytes": float(self.report.scatter_bytes)})
        if self.gather_bps is not None:
            self.gather_q = self.namespace.open_queue(
                f"{self.vm.name}.gather", "read", host=self.dst.name)
            self._gathering = True
            if self.tracer.enabled:
                self._gather_span = self.tracer.async_begin(
                    self._track, "gather", cat="phase",
                    args={"gather_bps": float(self.gather_bps)})
        else:
            self._end_ticks()
        if self.umem is not None:
            self.umem.close()
        self._finish()

    # -- gather (destination side, continues after the source is free) -----------
    def _gather_room(self) -> float:
        """Bytes the destination cgroup can still hold resident."""
        binding = self.dst.memory.binding(self.vm.name)
        return (binding.cgroup.reservation_bytes
                - self.vm.pages.resident_bytes())

    def _gather_tick(self) -> None:
        page = self._page_size()
        k = int(min(self.gather_q.granted,
                    max(0.0, self._gather_room())) // page)
        if k > 0:
            pages = self.vm.pages
            cand = np.flatnonzero(pages.swapped)
            if cand.size:
                take = cand[:k]
                self.dst.memory.fault_in(self.vm.name, take)
                self.report.gather_bytes += float(take.size) * page
        if self.vm.pages.swapped_pages() == 0:
            self._gathering = False
            self.gather_q.close()
            if self._gather_span:
                self.tracer.async_end(
                    self._gather_span,
                    args={"gather_bytes": float(self.report.gather_bytes)})
                self._gather_span = 0
            self._end_ticks()
