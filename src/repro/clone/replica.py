"""Replica-side clone machinery: post-copy hydration with CoW divergence.

A freshly forked replica owns no resident pages. Its memory is the
parent's :class:`~repro.clone.image.CloneImage`: staged template pages
appear as swapped-with-valid-copy (the shared VMD namespace is the swap
device, via :class:`~repro.clone.cow.CowBackend`), un-staged pages are
*parent-owed* and demand-fetched from the live parent through a
:class:`~repro.core.umem.UmemFaultHandler` — exactly the split the
Agile destination runs after its switchover.

:class:`ReplicaFetcher` is the per-replica tick participant driving
hydration:

* **demand** — pulls the hot head of the image (the pages a serving
  process touches first) at fault priority; the replica reports
  *serving* once ``SERVING_FRACTION`` of the hot template is resident;
* **gather** — trickles the cold remainder in the background at low
  priority, bounded by reservation headroom (the scatter-gather gather
  idiom);
* **CoW** — a deterministic fraction of freshly fetched hot pages is
  dirtied (the replica diverges from the template); privatized pages
  queue writeback into the replica's private overlay namespace, never
  into the shared image.

The fetcher removes itself from the tick engine once hydration is done,
so a churning clone fleet leaves no dead participants behind.

Re-faults of privatized pages are charged to the image read path (the
backend routes all reads there); the byte cost is identical and the
overlay holds the authoritative copy — a modeling simplification noted
in DESIGN.md §11.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Optional

import numpy as np

from repro.obs.tracer import NULL_TRACER

__all__ = ["CloneReport", "ReplicaFetcher"]

#: leading fraction of the address space a serving replica needs
HOT_FRACTION = 0.25
#: hot-template residency fraction at which a replica is *serving*
SERVING_FRACTION = 0.9
#: per-replica demand fetch budget (hot pages, fault priority)
DEMAND_BPS = 16e6
#: flow priority of demand fetches (0 = fault-critical)
DEMAND_PRIORITY = 0
#: flow priority of gather prefetch and overlay writeback
GATHER_PRIORITY = 2


@dataclass
class CloneReport:
    """Byte and timing accounting for one replica's life."""

    vm_name: str
    parent: str
    fork_time: float
    #: when the hot template fraction became resident (None: never)
    serving_time: Optional[float] = None
    #: when hydration finished and the fetcher retired itself
    done_time: Optional[float] = None
    #: bytes demand-fetched (shared image + parent channel)
    demand_bytes: float = 0.0
    #: subset of ``demand_bytes`` served by the live parent (umem)
    parent_demand_bytes: float = 0.0
    #: background gather reads of the cold template
    gather_bytes: float = 0.0
    #: privatized dirty pages written back to the overlay
    cow_bytes: float = 0.0
    pages_demand_fetched: int = 0
    failed: bool = False
    failure_reason: str = ""

    @property
    def total_bytes(self) -> float:
        return self.demand_bytes + self.gather_bytes + self.cow_bytes

    @property
    def time_to_serving(self) -> Optional[float]:
        if self.serving_time is None:
            return None
        return self.serving_time - self.fork_time


class ReplicaFetcher:
    """Tick participant hydrating one clone replica from its image."""

    def __init__(self, sim, mem, vm, binding, image, overlay_ns,
                 report: CloneReport, config, engine, umem=None,
                 tracer=None, on_serving=None, on_done=None):
        self.sim = sim
        self.mem = mem  # the replica host's HostMemoryManager
        self.vm = vm
        self.binding = binding
        self.image = image
        self.report = report
        self.cfg = config
        self.engine = engine
        self.umem = umem
        self.tracer = tracer if tracer is not None else NULL_TRACER
        self.on_serving = on_serving
        self.on_done = on_done
        page = image.page_size
        self.n_hot = max(1, int(round(image.n_pages * HOT_FRACTION)))
        self.hot_template_bytes = float(
            np.count_nonzero(image.template[:self.n_hot])) * page
        ns = image.namespace
        host = vm.host
        self.demand_q = ns.open_queue(f"{vm.name}.clonedemand", "read",
                                      host=host,
                                      priority=DEMAND_PRIORITY)
        self.gather_q = ns.open_queue(f"{vm.name}.clonegather", "read",
                                      host=host,
                                      priority=GATHER_PRIORITY)
        self.cow_q = overlay_ns.open_queue(f"{vm.name}.cowwrite", "write",
                                           host=host,
                                           priority=GATHER_PRIORITY)
        #: privatized bytes awaiting overlay writeback
        self.cow_backlog = 0.0
        self._dirty_credit = 0.0
        self.serving = False
        self.done = False
        self._span = self.tracer.async_begin(
            "clone", "replica", cat="clone",
            args={"vm": vm.name, "parent": image.parent, "host": host,
                  "staged_frac": float(np.count_nonzero(image.staged))
                  / max(1, image.template_pages)}) \
            if self.tracer.enabled else 0

    # -- tick protocol --------------------------------------------------------
    def pre_tick(self, dt: float) -> None:
        if self.done:
            return
        self._sync_staged()
        pages = self.binding.pages
        page = pages.page_size
        cfg = self.cfg
        n_hot = self.n_hot
        budget = DEMAND_BPS * dt
        hot_missing = float(
            np.count_nonzero(pages.swapped[:n_hot])) * page
        want_vmd = min(budget, hot_missing)
        if want_vmd > 0:
            self.demand_q.demand += want_vmd
        budget -= want_vmd
        want_umem = 0.0
        if self.umem is not None and budget > 0:
            owed_hot = float(np.count_nonzero(
                self.umem.scan.pending[:n_hot]
                & ~pages.present[:n_hot])) * page
            want_umem = min(budget, owed_hot)
            if want_umem > 0:
                self.umem.demand_source(want_umem)
        cold_missing = float(
            np.count_nonzero(pages.swapped[n_hot:])) * page
        if cold_missing > 0:
            room = (self.binding.cgroup.reservation_bytes
                    - pages.resident_bytes() - want_vmd - want_umem)
            want_gather = min(cold_missing, cfg.gather_bps * dt,
                              max(0.0, room))
            if want_gather > 0:
                self.gather_q.demand += want_gather
        if self.cow_backlog > 0:
            self.cow_q.demand += self.cow_backlog

    def _sync_staged(self) -> None:
        """Adopt newly staged template pages as swapped-with-valid-copy
        and un-pend them from the parent-owed scan (the snapshot stream
        races the replicas; whoever stages a page first wins)."""
        pages = self.binding.pages
        newly = (self.image.staged & self.image.template
                 & ~pages.present & ~pages.swapped)
        if np.any(newly):
            pages.swapped |= newly
            pages.swap_clean |= newly
        if self.umem is not None:
            cleared = np.flatnonzero(
                self.umem.scan.pending & self.image.staged)
            if cleared.size:
                self.umem.scan.remove(cleared)
            if self.umem.scan.remaining == 0:
                self.umem.close()
                self.umem = None

    def commit_tick(self, dt: float) -> None:
        if self.done:
            return
        pages = self.binding.pages
        page = pages.page_size
        name = self.vm.name
        fetched: list[np.ndarray] = []
        k = int(self.demand_q.granted // page)
        if k > 0:
            idx = np.flatnonzero(pages.swapped[:self.n_hot])[:k]
            if idx.size:
                self.report.demand_bytes += self.mem.fault_in(name, idx)
                self.report.pages_demand_fetched += int(idx.size)
                fetched.append(idx)
        if self.umem is not None:
            k2 = int(self.umem.granted_source() // page)
            if k2 > 0:
                pend = self.umem.scan.pending
                cand = np.flatnonzero(
                    pend[:self.n_hot] & ~pages.present[:self.n_hot])[:k2]
                if cand.size:
                    self.mem.fault_in(name, cand)
                    self.report.parent_demand_bytes += \
                        float(cand.size) * page
                    self.umem.notify_fetched(cand)
                    fetched.append(cand)
        k3 = int(self.gather_q.granted // page)
        if k3 > 0:
            cold = np.flatnonzero(pages.swapped[self.n_hot:])
            if cold.size:
                idx = cold[:k3] + self.n_hot
                self.report.gather_bytes += self.mem.fault_in(name, idx)
        self._privatize(fetched, pages, page)
        self._drain_cow(pages, page)
        self._update_state(pages, page)

    def _privatize(self, fetched, pages, page) -> None:
        """Deterministically dirty a fraction of freshly fetched hot
        pages: the replica's working state diverges from the template."""
        if not fetched or self.cfg.dirty_fraction <= 0:
            return
        idx = np.concatenate(fetched)
        self._dirty_credit += float(idx.size) * self.cfg.dirty_fraction
        nd = int(self._dirty_credit)
        if nd <= 0:
            return
        self._dirty_credit -= nd
        d = idx[:nd]
        pages.mark_dirty(d)
        self.cow_backlog += float(d.size) * page
        if self.tracer.enabled:
            self.tracer.instant(
                f"vm:{self.vm.name}", "cow-privatize", cat="clone",
                args={"pages": int(d.size),
                      "backlog_bytes": self.cow_backlog})

    def _drain_cow(self, pages, page) -> None:
        g = self.cow_q.granted
        if g <= 0:
            return
        self.cow_backlog = max(0.0, self.cow_backlog - g)
        self.report.cow_bytes += g
        kd = int(g // page)
        if kd > 0:
            cand = np.flatnonzero(
                pages.dirty & pages.present & ~pages.swap_clean)[:kd]
            if cand.size:
                # the private copy now lives on the overlay
                pages.swap_clean[cand] = True

    def _update_state(self, pages, page) -> None:
        if not self.serving:
            resident_hot = float(pages.resident_in(0, self.n_hot)) * page
            if resident_hot >= (SERVING_FRACTION
                                * self.hot_template_bytes) - 1e-9:
                self.serving = True
                self.report.serving_time = self.sim.now
                if self.tracer.enabled:
                    self.tracer.instant(
                        "clone", "serving", cat="clone",
                        args={"vm": self.vm.name,
                              "t_fork": self.report.fork_time,
                              "demand_bytes": self.report.demand_bytes})
                if self.on_serving is not None:
                    self.on_serving(self.vm.name)
        if self.serving and self.umem is None and self.cow_backlog <= 0:
            if pages.swapped_pages() == 0:
                self._finish("hydrated")
            elif (self.binding.cgroup.reservation_bytes
                  - pages.resident_bytes()) < page:
                # reservation full: the cold tail stays on the (shared)
                # device, served by normal faults from here on
                self._finish("hydrated-to-reservation")

    # -- lifecycle ------------------------------------------------------------
    def _finish(self, outcome: str) -> None:
        self._close(outcome)
        self.report.done_time = self.sim.now
        if self.on_done is not None:
            self.on_done(self.vm.name)

    def close(self) -> None:
        """External teardown (departure or failure)."""
        self._close("closed")

    def _close(self, outcome: str) -> None:
        if self.done:
            return
        self.done = True
        if self.umem is not None:
            self.umem.close()
            self.umem = None
        self.demand_q.close()
        self.gather_q.close()
        self.cow_q.close()
        self.engine.remove_participant(self)
        if self._span:
            self.tracer.async_end(self._span, args={
                "outcome": outcome,
                "demand_bytes": self.report.demand_bytes,
                "parent_demand_bytes": self.report.parent_demand_bytes,
                "gather_bytes": self.report.gather_bytes,
                "cow_bytes": self.report.cow_bytes})
            self._span = 0
