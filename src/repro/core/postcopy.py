"""Post-copy live migration (baseline, §II).

The VM is suspended immediately; its CPU state moves to the destination
and the VM resumes there. Memory follows by two concurrent mechanisms:
the source **actively pushes** all pages in order, and the destination
**demand-pages** faulted pages over a prioritized channel
(:class:`~repro.core.umem.UmemFaultHandler`). Each page moves exactly
once. Pages swapped out at the source must still be swapped in before
they can be pushed or served, so the total migration time remains
coupled to the source swap device (Figure 7's busy-VM cliff).

The handover → push half is shared: Agile
(:class:`~repro.core.agile.AgileMigration`) is this engine with one live
round in front.
"""

from __future__ import annotations

from typing import Optional

from repro.core.base import MigrationManager, MigrationPhase
from repro.core.umem import UmemFaultHandler

__all__ = ["PostcopyMigration"]


class PostcopyMigration(MigrationManager):
    """KVM/QEMU-style post-copy with active push.

    Like pre-copy, pass ``dst_backend`` explicitly (destination local
    swap device).
    """

    technique = "post-copy"

    umem: Optional[UmemFaultHandler] = None

    def start(self) -> None:
        self._start(self._allocated())
        # Suspend now; the VM resumes at the destination as soon as the
        # CPU state lands. Downtime is just this transfer.
        self._handover()

    # -- handover -> push --------------------------------------------------------
    def _handover(self) -> None:
        """Suspend the VM and ship the handover payload (FIFO behind any
        in-flight page data); the push starts when it lands."""
        self._suspend_vm()
        self.phase = MigrationPhase.STOPCOPY
        nbytes, args = self._handover_payload()
        self._trace_phase("handover", args)
        self.umem = self._open_umem()
        self._finish_sent = False
        self.report.metadata_bytes += nbytes
        self.stream.send(nbytes, on_complete=lambda _job: self._cpu_arrived())

    def _handover_payload(self) -> tuple[float, dict]:
        """Bytes of the handover message and its trace args: the CPU
        state alone; the push walks every allocated page."""
        cpu = self.vm.cpu_state_bytes
        return cpu, {"cpu_state_bytes": float(cpu)}

    def _cpu_arrived(self) -> None:
        self._switch_to_destination()
        if self.workload is not None:
            self.workload.fault_router = self.umem
        self.phase = MigrationPhase.PUSH
        self._trace_phase("push",
                          {"remaining_pages": int(self.scan.remaining)})

    # -- tick protocol ---------------------------------------------------------
    def pre_tick(self, dt: float) -> None:
        super().pre_tick(dt)
        if self.phase is MigrationPhase.PUSH:
            self._demand_swap_reads(dt)

    def commit_tick(self, dt: float) -> None:
        super().commit_tick(dt)
        if self.phase is MigrationPhase.PUSH:
            self._send_pages("push_bytes")
            if self.scan.exhausted() and not self._finish_sent:
                # FIFO sentinel: fires only after every queued page
                # delivers.
                self._finish_sent = True
                self.stream.send(0.0, on_complete=self._all_delivered)

    def _all_delivered(self, _job) -> None:
        self.umem.close()
        self._finish()

    def _abort_cleanup(self) -> None:
        if self.umem is not None:
            self.umem.close()
