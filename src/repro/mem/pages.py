"""Per-VM page state arrays.

A :class:`PageSet` is the model of one VM's physical memory as the host
sees it. It corresponds to the union of data structures the paper's
Migration Manager consults:

* the **present** bit — page resident in host RAM (PTE present);
* the **swapped** bit — page lives on the VM's swap device, exactly the
  ``/proc/pid/pagemap`` swapped bit of §IV-C. The swap offset of page *i*
  is simply *i* in its per-VM namespace (a per-VM device needs no shared
  offset allocation, which is itself one of the design's simplifications);
* the **dirty** bitmap of the migration rounds (§IV-E);
* a **last_access** tick stamp used by the host LRU.

A page in neither state was never allocated (the guest never touched it).
All operations are NumPy-vectorized; no per-page Python loops.

Residency is counted incrementally: every transition updates a running
resident-page counter so :meth:`PageSet.resident_pages` is O(1). This is
what turns the host eviction loop from quadratic (a full bitmap scan per
iteration) into linear work, and it is why external code must never flip
``present`` directly — go through the transition methods (or
:meth:`release_resident`), which keep the counter exact. Transition
methods require **unique** index arrays (every caller passes
``flatnonzero``- or ``choice(replace=False)``-derived indices).

The same transitions push their byte deltas to the memory managers that
bind the set (:meth:`PageSet.bind`), so a host's resident total is a
running counter as well. A set may be bound by more than one manager at
once, and a manager binding it twice counts it twice, exactly as a sum
over its bindings would.

The host LRU is incremental. An eviction reads a cached order of the
resident pages, sorted by ``(last_access, tie rank)`` when it was last
built, and validates entries lazily; the order is rebuilt only when it
holds too few valid entries (see :meth:`PageSet.lru_candidates`). Ties
between pages stamped at the same tick are broken by a fixed seeded
permutation of page indices (DESIGN §5 item 8).
"""

from __future__ import annotations

import numpy as np

from repro.util import PAGE_SIZE

__all__ = ["PageSet", "LRU_TIE_SEED", "lru_tie_rank"]

#: seed of the LRU tie-break permutation; a constant of its own, so that
#: eviction order never draws from a workload's rng stream
LRU_TIE_SEED = 0x1F0E
#: LRU ticks must stay below this (the sort key is ``tick << 32 | rank``);
#: as ``_lru_fresh`` it means no tick was stamped since the last build
_TICK_LIMIT = 1 << 31
_NO_ORDER = np.empty(0, dtype=np.int32)


def lru_tie_rank(n_pages: int) -> np.ndarray:
    """The LRU tie rank of each page: a seeded permutation of its index.

    Most pages share an access tick (touch sampling is capped), so the
    tie-break decides which of them are evicted. Index order would evict
    the low-index hot write set first; a permutation spreads evictions
    evenly over the VM's regions.
    """
    rng = np.random.default_rng(LRU_TIE_SEED)
    return rng.permutation(n_pages).astype(np.int32)


class PageSet:
    """State arrays for ``n_pages`` pages of ``page_size`` bytes each."""

    def __init__(self, n_pages: int, page_size: int = PAGE_SIZE):
        if n_pages <= 0:
            raise ValueError(f"n_pages must be positive: {n_pages}")
        if page_size <= 0:
            raise ValueError(f"page_size must be positive: {page_size}")
        self.n_pages = int(n_pages)
        self.page_size = int(page_size)
        self.present = np.zeros(n_pages, dtype=bool)
        self.swapped = np.zeros(n_pages, dtype=bool)
        self.dirty = np.zeros(n_pages, dtype=bool)
        #: a valid copy of the page exists on the swap device (swap cache);
        #: such pages can be evicted without writeback
        self.swap_clean = np.zeros(n_pages, dtype=bool)
        self.last_access = np.zeros(n_pages, dtype=np.int64)
        #: running count of set ``present`` bits (kept exact by the
        #: transition methods; O(1) residency queries)
        self._n_resident = 0
        #: managers binding this set, one entry per binding; every
        #: transition moves each one's resident total
        self._owners: list = []
        # incremental LRU (built on the first eviction): resident page ids
        # sorted by (last_access, tie rank), the count of leading entries
        # known dead, and the minimum tick stamped since the build
        self._tie_rank: np.ndarray | None = None
        self._lru_order = _NO_ORDER
        self._lru_head = 0
        self._lru_fresh = _TICK_LIMIT

    # -- derived quantities -------------------------------------------------
    @property
    def total_bytes(self) -> int:
        return self.n_pages * self.page_size

    def resident_pages(self) -> int:
        return self._n_resident

    def resident_bytes(self) -> int:
        return self.resident_pages() * self.page_size

    def swapped_pages(self) -> int:
        return int(np.count_nonzero(self.swapped))

    def swapped_bytes(self) -> int:
        return self.swapped_pages() * self.page_size

    def resident_in(self, lo: int, hi: int) -> int:
        """Resident pages within the half-open page range [lo, hi)."""
        return int(np.count_nonzero(self.present[lo:hi]))

    def check_invariants(self) -> None:
        """Kernel-style consistency checks (used by tests and hypothesis)."""
        if np.any(self.present & self.swapped):
            raise AssertionError("page both present and swapped")
        if np.any(self.swapped & ~self.swap_clean):
            raise AssertionError("swapped page without a valid swap copy")
        if self._n_resident != int(np.count_nonzero(self.present)):
            raise AssertionError(
                f"resident counter drifted: {self._n_resident} != "
                f"{int(np.count_nonzero(self.present))}")

    # -- manager bindings ------------------------------------------------------
    def bind(self, manager) -> None:
        """Count this set in ``manager``'s resident total from now on
        (its current resident bytes included)."""
        self._owners.append(manager)
        manager.move_resident(self.resident_bytes())

    def unbind(self, manager) -> None:
        """Undo one :meth:`bind` of ``manager``."""
        self._owners.remove(manager)
        manager.move_resident(-self.resident_bytes())

    def _push(self, pages: int) -> None:
        """Move every binding manager's total by ``pages`` pages."""
        delta = pages * self.page_size
        for manager in self._owners:
            manager.move_resident(delta)

    # -- transitions ---------------------------------------------------------
    def touch(self, idx: np.ndarray, tick: int) -> None:
        """Record access time for LRU; pages must already be present."""
        self.last_access[idx] = tick
        if tick < self._lru_fresh:
            self._lru_fresh = tick

    def mark_dirty(self, idx: np.ndarray) -> None:
        """Record guest writes: sets the migration dirty bit and invalidates
        any swap copy (the page differs from what is on the device now)."""
        self.dirty[idx] = True
        self.swap_clean[idx] = False

    def clear_dirty(self, idx: np.ndarray) -> None:
        self.dirty[idx] = False

    def make_resident(self, idx: np.ndarray, tick: int) -> int:
        """Fault pages in (from swap or fresh allocation).

        Pages read from swap keep their valid on-device copy (swap cache,
        ``swap_clean`` stays set); freshly allocated pages have none.
        Returns the number of pages that became newly resident.
        """
        newly = idx.size - int(np.count_nonzero(self.present[idx]))
        self.present[idx] = True
        self.swapped[idx] = False
        self.last_access[idx] = tick
        if tick < self._lru_fresh:
            self._lru_fresh = tick
        self._n_resident += newly
        if newly and self._owners:
            self._push(newly)
        return newly

    def swap_out(self, idx: np.ndarray) -> int:
        """Evict pages to the swap device.

        After this call every evicted page has (or is getting, via the
        manager's writeback queue) a valid copy on the device. Returns
        the number of pages that were resident before the call.
        """
        gone = int(np.count_nonzero(self.present[idx]))
        self.present[idx] = False
        self.swapped[idx] = True
        self.swap_clean[idx] = True
        self._n_resident -= gone
        if gone and self._owners:
            self._push(-gone)
        return gone

    def drop(self, idx: np.ndarray) -> int:
        """Discard pages entirely (used when freeing a migrated-away VM).
        Returns the number of previously resident pages dropped."""
        gone = int(np.count_nonzero(self.present[idx]))
        self.present[idx] = False
        self.swapped[idx] = False
        self.swap_clean[idx] = False
        self._n_resident -= gone
        if gone and self._owners:
            self._push(-gone)
        return gone

    def release_resident(self, idx: np.ndarray) -> int:
        """Clear only the ``present`` bits, keeping swap state untouched.

        This is the source-side teardown after a migration: resident
        pages are gone with the QEMU process, but valid swap copies stay
        reachable from the portable per-VM device (§IV-B). Returns the
        number of previously resident pages released.
        """
        gone = int(np.count_nonzero(self.present[idx]))
        self.present[idx] = False
        self._n_resident -= gone
        if gone and self._owners:
            self._push(-gone)
        return gone

    # -- queries used by eviction and migration --------------------------------
    def present_indices(self) -> np.ndarray:
        return np.flatnonzero(self.present)

    def lru_candidates(self, k: int, protect: np.ndarray | None = None
                       ) -> np.ndarray:
        """The ``k`` least-recently-used eligible pages, oldest first.

        Eligible pages are resident and not set in ``protect`` (an
        optional boolean mask; no caller in the simulator sets one
        today). Pages are ranked by ``(last_access, tie rank)``, where the
        tie rank is :func:`lru_tie_rank`. Returns every eligible page if
        there are fewer than ``k``. The call changes no page state.

        The cached order is checked as it is read. Every page stamped
        since the build is at least ``_lru_fresh`` old, so an entry is
        valid (its page resident and unstamped since the build) exactly
        when its page is resident and older than that. Valid entries in
        order are then the oldest pages. An invalid entry stays invalid
        until the next build, so leading ones are skipped for good.
        """
        if k <= 0 or self._n_resident == 0:
            return np.empty(0, dtype=np.int64)
        victims = self._scan_lru(k, protect)
        if victims.size < k:
            self._rebuild_lru()
            victims = self._scan_lru(k, protect)
        return victims

    def _scan_lru(self, k: int, protect: np.ndarray | None) -> np.ndarray:
        """Up to ``k`` eligible pages from the valid entries, in order."""
        order, fresh = self._lru_order, self._lru_fresh
        # the first window covers the previous call's victims (dead now)
        pos, window = self._lru_head, 4 * k + 64
        found, n_found = [], 0
        while pos < order.size and n_found < k:
            stop = pos + window
            ids = order[pos:stop].astype(np.int64)  # int64 gathers faster
            live = self.present[ids]
            live &= self.last_access[ids] < fresh
            if pos == self._lru_head:
                lead = int(live.argmax())
                self._lru_head += lead if live[lead] else live.size
            if protect is not None:
                live &= ~protect[ids]
            got = ids[live][:k - n_found]
            found.append(got)
            n_found += got.size
            pos, window = stop, 2 * window
        if not found:
            return np.empty(0, dtype=np.int64)
        return found[0] if len(found) == 1 else np.concatenate(found)

    def _rebuild_lru(self) -> None:
        if self._tie_rank is None:
            self._tie_rank = lru_tie_rank(self.n_pages)
        ids = np.flatnonzero(self.present).astype(np.int32)
        key = self.last_access[ids]
        if key.size and key.max() >= _TICK_LIMIT:
            raise OverflowError("LRU tick beyond the 31-bit range")
        key <<= 32
        key |= self._tie_rank[ids]
        self._lru_order = ids[key.argsort()]
        self._lru_head = 0
        self._lru_fresh = _TICK_LIMIT
