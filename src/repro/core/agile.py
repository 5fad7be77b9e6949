"""Agile live migration — the paper's contribution (§III-§IV).

Agile is one live pre-copy round followed by post-copy's push. The
round walks the whole address space, but:

* resident pages are sent in full (like pre-copy round 1);
* swapped pages are **not** transferred — only their swap offset goes to
  the destination (a SWAPPED-flag message, ~16 bytes), and the
  destination sets its *swapped bitmap* so later faults on those pages
  read the portable per-VM swap device (VMD) directly.

After the single round, the CPU state and the dirty bitmap move, the VM
resumes at the destination, and the pages dirtied during the round are
actively pushed / demand-paged by the post-copy machinery this engine
inherits from :class:`~repro.core.postcopy.PostcopyMigration`. The
per-VM swap device stays attached to the destination, so no residual
state remains at the source once the push drains.
"""

from __future__ import annotations

import numpy as np

from repro.core.base import MigrationPhase, PendingScan
from repro.core.postcopy import PostcopyMigration

__all__ = ["AgileMigration"]

#: bytes on the wire for one SWAPPED-flag message (offset + flags)
SWAP_OFFSET_MSG_BYTES = 16


class AgileMigration(PostcopyMigration):
    """Post-copy with one live round in front that never moves cold
    pages.

    The destination swap backend defaults to the source binding's backend
    — which for Agile must be the VM's portable VMD namespace, making the
    cold pages reachable from the destination without transfer.
    """

    technique = "agile"

    def start(self) -> None:
        self._start(self._allocated())
        self.phase = MigrationPhase.LIVE_ROUND
        self.report.rounds = 1
        self._trace_phase("live-round",
                          {"pending_pages": int(self.scan.remaining)})

    # The live round needs no swap reads (cold pages are skipped), so
    # post-copy's pre_tick (swap reads for the push only) fits as is.
    def commit_tick(self, dt: float) -> None:
        super().commit_tick(dt)
        if self.phase is MigrationPhase.LIVE_ROUND:
            self._live_round_tick()

    # -- phase 1: the single live round ----------------------------------------
    def _live_round_tick(self) -> None:
        page = self._page_size()
        room_bytes = max(0.0, self.config.backlog_cap_bytes
                         - self.stream.backlog)
        res, swp = self.scan.take_weighted(
            room_bytes, 0, self.src_pages.swapped,
            resident_cost=float(page), swapped_cost=SWAP_OFFSET_MSG_BYTES,
            free_swapped=True)
        if res.size or swp.size:
            data_bytes = float(res.size) * page
            meta_bytes = float(swp.size) * SWAP_OFFSET_MSG_BYTES
            if res.size:
                self.src_pages.clear_dirty(res)
            if swp.size:
                self.src_pages.clear_dirty(swp)
            self.report.precopy_bytes += data_bytes
            self.report.metadata_bytes += meta_bytes
            self.report.pages_sent += int(res.size)
            self.report.pages_skipped_swapped += int(swp.size)
            self.stream.send(
                data_bytes + meta_bytes, info=(res, swp),
                on_complete=lambda job: self._deliver_round(job.info))
        if self.scan.exhausted():
            self._handover()

    def _deliver_round(self, info: tuple[np.ndarray, np.ndarray]) -> None:
        res, swp = info
        if res.size:
            self._deliver_to_dst(res)
        if swp.size:
            # SWAPPED-flag messages: record offsets in the swap-offset
            # table and set the destination's swapped bitmap (§IV-F).
            self.dst_pages.swapped[swp] = True
            self.dst_pages.swap_clean[swp] = True

    # -- phase 2: post-copy's handover and push ----------------------------------
    def _handover_payload(self) -> tuple[float, dict]:
        """CPU state plus the dirty bitmap; the push walks the pages
        dirtied during the round."""
        pages = self.src_pages
        dirty = pages.dirty & self._allocated()
        pages.dirty[:] = False
        self.scan = PendingScan(dirty)
        nbytes = self.vm.cpu_state_bytes + pages.n_pages / 8.0
        return nbytes, {"dirty_pages": int(self.scan.remaining)}
