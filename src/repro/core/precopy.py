"""Iterative pre-copy live migration (baseline, §II).

Round 1 transfers the VM's entire allocated memory; each later round
transfers the pages dirtied during the previous one. Swapped-out pages
must be read back from the source swap device before they can be sent
(§II: "any swapped out memory pages of the migrating VM need to be
swapped back in before being transferred"), so the migration stream is
rate-coupled to the swap device and competes with the VMs' own faults.
When the dirty set is small enough (or rounds are exhausted), the VM is
suspended and the remainder plus the CPU state are sent — the downtime.
"""

from __future__ import annotations

import numpy as np

from repro.core.base import MigrationManager, MigrationPhase, PendingScan

__all__ = ["PrecopyMigration"]


class PrecopyMigration(MigrationManager):
    """QEMU-style iterative pre-copy.

    Note: pass ``dst_backend`` explicitly (the destination host's local
    swap device). A host-level swap partition is not portable, so the
    destination cannot reuse the source's (§IV-B).

    ``auto_converge=True`` enables the vCPU-throttling convergence aid
    (QEMU auto-converge / VMware SDPS, discussed in §VI): whenever a
    round fails to shrink the dirty set, the guest's vCPUs are slowed
    down so the next round can catch up — trading even more application
    performance for a bounded migration, which is exactly the trade-off
    the paper criticizes.
    """

    technique = "pre-copy"

    #: multiplicative throttle per non-converging round, and its floor
    #: (QEMU's auto-converge escalates to a 99 % stall)
    THROTTLE_STEP = 0.6
    THROTTLE_FLOOR = 0.01

    def __init__(self, *args, auto_converge: bool = False, **kwargs):
        super().__init__(*args, **kwargs)
        self.auto_converge = auto_converge
        self._last_dirty_bytes: float | None = None

    def start(self) -> None:
        self._start(self._allocated())
        self.report.rounds = 1
        self.phase = MigrationPhase.LIVE_ROUND
        self._cpu_state_sent = False
        self._trace_phase("round-1",
                          {"pending_pages": int(self.scan.remaining)})

    # -- tick protocol -----------------------------------------------------------
    def pre_tick(self, dt: float) -> None:
        super().pre_tick(dt)
        if self.phase in (MigrationPhase.LIVE_ROUND, MigrationPhase.STOPCOPY):
            self._demand_swap_reads(dt)

    def commit_tick(self, dt: float) -> None:
        super().commit_tick(dt)
        if self.phase not in (MigrationPhase.LIVE_ROUND,
                              MigrationPhase.STOPCOPY):
            return
        live = self.phase is MigrationPhase.LIVE_ROUND
        sent = self._send_pages("precopy_bytes" if live
                                else "stopcopy_bytes")
        # Content is snapshotted at send time: reset the dirty bits so
        # only *re*-dirtied pages are retransmitted (§IV-E semantics).
        self.src_pages.clear_dirty(sent)
        if self.scan.exhausted():
            if live:
                self._end_round()
            elif not self._cpu_state_sent:
                self._send_cpu_state()

    # -- phase transitions -----------------------------------------------------------
    def _end_round(self) -> None:
        pages = self.src_pages
        dirty = pages.dirty & self._allocated()
        dirty_bytes = float(np.count_nonzero(dirty)) * pages.page_size
        converged = dirty_bytes <= self.config.stopcopy_threshold_bytes
        if converged or self.report.rounds >= self.config.max_rounds:
            self._enter_stopcopy(dirty)
            return
        if (self.auto_converge and self.workload is not None
                and self._last_dirty_bytes is not None
                and dirty_bytes > 0.9 * self._last_dirty_bytes):
            self.workload.cpu_throttle = max(
                self.THROTTLE_FLOOR,
                self.workload.cpu_throttle * self.THROTTLE_STEP)
            if self.tracer.enabled:
                self.tracer.instant(
                    self._track, "auto-converge", cat="phase",
                    args={"cpu_throttle": float(
                        self.workload.cpu_throttle)})
        self._last_dirty_bytes = dirty_bytes
        self.report.rounds += 1
        pages.dirty[:] = False
        self.scan = PendingScan(dirty)
        self._trace_phase(f"round-{self.report.rounds}",
                          {"dirty_bytes": dirty_bytes})

    def _enter_stopcopy(self, dirty: np.ndarray) -> None:
        self._suspend_vm()
        self.src_pages.dirty[:] = False
        self.scan = PendingScan(dirty)
        self.phase = MigrationPhase.STOPCOPY
        self._trace_phase(
            "stop-and-copy",
            {"rounds": int(self.report.rounds),
             "remaining_pages": int(self.scan.remaining)})

    def _send_cpu_state(self) -> None:
        """Final FIFO item behind the last dirty pages: CPU + device state.

        Its delivery is the moment the VM resumes at the destination; for
        pre-copy that is also the end of the migration.
        """
        self._cpu_state_sent = True
        self.report.metadata_bytes += self.vm.cpu_state_bytes

        def arrived(_job) -> None:
            self._switch_to_destination()
            self._finish()

        self.stream.send(self.vm.cpu_state_bytes, on_complete=arrived)
