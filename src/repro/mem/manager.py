"""Host memory manager: residency, cgroup caps, LRU eviction, writeback.

One :class:`HostMemoryManager` exists per physical host. It enforces two
capacity limits, in this order:

1. **cgroup reservation** — each VM's resident bytes never exceed its
   cgroup reservation (the knob the paper's WSS controller turns);
2. **host capacity** — total residency across VMs never exceeds physical
   memory minus the host OS overhead (~200 MB in the paper's testbed).

Eviction is LRU within the victim VM. Evicted pages become readable from
swap immediately, but pages without a valid swap copy enqueue *writeback*
bytes that compete for device bandwidth on subsequent ticks — this
read/write contention is the thrashing mechanism behind Figure 7.

Swap-clean tracking mirrors the Linux swap cache: a page swapped in and
not re-dirtied keeps its valid swap copy and can be evicted again for
free; dirtying a page invalidates the copy.

The tick-phase bookkeeping (writeback-demand declaration, fault
throttling, the writeback drain) and the host-pressure victim search are
plain loops over the registered bindings: per-VM residency is an O(1)
:class:`~repro.mem.pages.PageSet` counter, so each loop costs a few
attribute reads per VM. A manager owing no writeback parks (leaves the
tick engine's active set); an eviction that queues writeback wakes it.
"""

from __future__ import annotations

from typing import TYPE_CHECKING, Optional

import numpy as np

from repro.mem.cgroup import Cgroup
from repro.mem.device import DeviceQueue, SwapBackend
from repro.mem.pages import PageSet
from repro.sim.periodic import Parkable
from repro.telemetry.instruments import NULL_METRICS

if TYPE_CHECKING:  # pragma: no cover
    from repro.vm.vm import VirtualMachine

__all__ = ["HostMemoryManager", "VmMemoryBinding"]


class VmMemoryBinding:
    """Everything the manager tracks for one registered VM.

    ``pages`` is captured at registration time rather than read through
    the VM: during a migration the VM's authoritative page set switches
    to the destination copy, while the source host keeps managing the
    source-side copy until the push phase finishes.
    """

    __slots__ = ("vm_name", "pages", "cgroup", "backend", "fault_queue",
                 "write_queue", "protect", "writeback_backlog")

    def __init__(self, vm_name: str, pages: PageSet, cgroup: Cgroup,
                 backend: SwapBackend, fault_queue: DeviceQueue,
                 write_queue: DeviceQueue,
                 writeback_backlog: float = 0.0,
                 protect: Optional[np.ndarray] = None):
        self.vm_name = vm_name
        self.pages = pages
        self.cgroup = cgroup
        self.backend = backend
        #: lane used for the VM's own demand faults (owned by the workload path)
        self.fault_queue = fault_queue
        #: lane used for eviction writeback
        self.write_queue = write_queue
        #: pages pinned against eviction (e.g. being scanned by migration)
        self.protect = protect
        #: evicted bytes still waiting for device write bandwidth
        self.writeback_backlog = float(writeback_backlog)

    def __repr__(self) -> str:  # pragma: no cover
        return (f"VmMemoryBinding(vm_name={self.vm_name!r}, "
                f"writeback_backlog={self.writeback_backlog!r})")


class HostMemoryManager(Parkable):
    """Tick participant managing one host's physical memory."""

    #: writeback debt above which fault admission is throttled (models the
    #: kernel stalling direct reclaim on swap writeback: dirty pages must
    #: reach the device before their frames are reused, so a reclaim storm
    #: slows page-ins instead of accumulating unbounded write debt)
    writeback_debt_cap: float = 64 * 2 ** 20

    #: live-metrics sink; class-level no-op default so standalone
    #: managers (benches, unit tests) pay one attribute check —
    #: ``World.add_host`` re-assigns the instance attribute
    metrics = NULL_METRICS

    def __init__(self, host: str, capacity_bytes: float,
                 host_os_bytes: float = 200 * 2 ** 20):
        if capacity_bytes <= host_os_bytes:
            raise ValueError("host capacity must exceed host OS overhead")
        self.host = host
        self.capacity_bytes = float(capacity_bytes)
        self.host_os_bytes = float(host_os_bytes)
        self._bindings: dict[str, VmMemoryBinding] = {}
        #: resident bytes over every binding, moved by the bound page
        #: sets' transitions (:meth:`PageSet.bind`)
        self._resident_bytes = 0
        #: sets this manager adds itself to whenever that total moves
        #: (see :meth:`watch_resident`)
        self._resident_watchers: list[set] = []
        self._tick = 0

    @property
    def tick(self) -> int:
        """The LRU clock stamped on faulted and touched pages: the tick
        engine's tick index, so a parked manager's clock keeps time. A
        manager driven by hand keeps the value its caller sets."""
        engine = self._engine
        return self._tick if engine is None else engine.tick_index

    @tick.setter
    def tick(self, value: int) -> None:
        self._tick = value

    # -- registration ----------------------------------------------------------
    def register_vm(self, vm: "VirtualMachine", cgroup: Cgroup,
                    backend: SwapBackend,
                    writeback_backlog: float = 0.0) -> VmMemoryBinding:
        """Bind ``vm``'s pages; ``writeback_backlog`` carries write debt
        across (a migration re-keying the destination binding)."""
        if vm.name in self._bindings:
            raise ValueError(f"VM already registered: {vm.name}")
        binding = VmMemoryBinding(
            vm_name=vm.name, pages=vm.pages, cgroup=cgroup, backend=backend,
            fault_queue=backend.open_queue(f"{vm.name}.fault", "read",
                                           host=self.host),
            write_queue=backend.open_queue(f"{vm.name}.writeback", "write",
                                           host=self.host),
            writeback_backlog=writeback_backlog,
        )
        self._bindings[vm.name] = binding
        binding.pages.bind(self)
        if writeback_backlog > 0:
            self.wake()
        return binding

    def unregister_vm(self, vm_name: str) -> None:
        binding = self._bindings.pop(vm_name)
        binding.pages.unbind(self)
        binding.fault_queue.close()
        binding.write_queue.close()
        # The VM's writeback debt departs with it: the queued writes
        # belonged to a QEMU process that no longer exists on this host,
        # so they must not keep demanding device bandwidth.
        binding.writeback_backlog = 0.0

    def binding(self, vm_name: str) -> VmMemoryBinding:
        return self._bindings[vm_name]

    def has_vm(self, vm_name: str) -> bool:
        return vm_name in self._bindings

    @property
    def bindings(self) -> list[VmMemoryBinding]:
        return list(self._bindings.values())

    # -- capacity queries --------------------------------------------------------
    def usable_bytes(self) -> float:
        return self.capacity_bytes - self.host_os_bytes

    def total_resident_bytes(self) -> int:
        """Resident bytes over every binding, in O(1): the bound page
        sets push each residency change here."""
        return self._resident_bytes

    def move_resident(self, delta: int) -> None:
        """Move the resident total by ``delta`` bytes (called by the
        bound page sets) and flag this manager to every watcher."""
        self._resident_bytes += delta
        for moved in self._resident_watchers:
            moved.add(self)

    def watch_resident(self, moved: set) -> None:
        """Add this manager to ``moved`` whenever its resident total
        changes (a host view rereads only the flagged hosts)."""
        if not any(w is moved for w in self._resident_watchers):
            self._resident_watchers.append(moved)

    def free_bytes(self) -> float:
        return self.usable_bytes() - self.total_resident_bytes()

    # -- fault path (called during commit phase) ----------------------------------
    def fault_in(self, vm_name: str, idx: np.ndarray) -> float:
        """Make pages resident; returns bytes read from the swap device.

        Pages that were swapped are charged as swap-in I/O; never-allocated
        pages are zero-filled for free. Callers must respect their device
        read grant before calling (the grant is what limits how many pages
        they may fault per tick).
        """
        b = self._bindings[vm_name]
        pages = b.pages
        if idx.size == 0:
            return 0.0
        was_swapped = pages.swapped[idx]
        read_bytes = float(np.count_nonzero(was_swapped)) * pages.page_size
        pages.make_resident(idx, self.tick)
        b.cgroup.account_swap_in(read_bytes)
        if read_bytes and self.metrics.enabled:
            self.metrics.counter("mem.swapin_bytes").inc(read_bytes)
        self.ensure_capacity(vm_name)
        return read_bytes

    def dirty(self, vm_name: str, idx: np.ndarray) -> None:
        """Mark pages written: sets the migration dirty bit and invalidates
        any swap copy (the page must be written back if evicted again)."""
        self._bindings[vm_name].pages.mark_dirty(idx)

    # -- eviction -------------------------------------------------------------
    def ensure_capacity(self, vm_name: str) -> int:
        """Evict LRU pages until the VM is within its cgroup reservation and
        the host is within physical capacity. Returns pages evicted."""
        evicted = self._enforce_cgroup(self._bindings[vm_name])
        evicted += self._enforce_host()
        return evicted

    def _enforce_cgroup(self, b: VmMemoryBinding) -> int:
        pages = b.pages
        over = pages.resident_bytes() - b.cgroup.reservation_bytes
        if over <= 0:
            return 0
        k = int(np.ceil(over / pages.page_size))
        return self._evict(b, k)

    def _enforce_host(self) -> int:
        total = 0
        guard = 0
        usable = self.usable_bytes()
        while self.total_resident_bytes() > usable:
            guard += 1
            if guard > 1000:  # pragma: no cover - safety net
                raise RuntimeError("host eviction failed to converge")
            victim = self._pick_host_victim()
            if victim is None:
                break  # nothing evictable (all pages pinned)
            over = self.total_resident_bytes() - usable
            k = int(np.ceil(over / victim.pages.page_size))
            n = self._evict(victim, k)
            total += n
            if n == 0:
                break
        return total

    def _pick_host_victim(self) -> Optional[VmMemoryBinding]:
        """Evict from the VM most over its reservation, else the largest."""
        best, best_over = None, -float("inf")
        for b in self._bindings.values():
            resident = b.pages.resident_bytes()
            if resident == 0:
                continue
            over = resident - b.cgroup.reservation_bytes
            if over > best_over:
                best, best_over = b, over
        return best

    def _evict(self, b: VmMemoryBinding, k: int) -> int:
        pages = b.pages
        victims = pages.lru_candidates(k, protect=b.protect)
        if victims.size == 0:
            return 0
        # Pages with a valid swap copy are dropped for free; the rest queue
        # writeback bytes that will demand device write bandwidth.
        needs_write = ~pages.swap_clean[victims]
        write_bytes = float(np.count_nonzero(needs_write)) * pages.page_size
        pages.swap_out(victims)
        pages.swap_clean[victims] = True
        if write_bytes > 0:
            b.writeback_backlog += write_bytes
            self.wake()
        b.cgroup.account_swap_out(write_bytes)
        return int(victims.size)

    def shrink_to_reservation(self, vm_name: str) -> int:
        """Apply a reduced reservation immediately (WSS controller path)."""
        return self._enforce_cgroup(self._bindings[vm_name])

    def free_vm_memory(self, vm_name: str) -> None:
        """Drop all resident pages of a VM (source side after migration).

        The swap copies are *not* dropped: Agile migration requires the
        per-VM swap device to stay intact for the destination (§IV-B).
        Pending writeback debt is cancelled with the process — the pages
        it covered were transferred before this is called, so phantom
        demand must not keep competing for device write bandwidth.
        """
        b = self._bindings[vm_name]
        pages = b.pages
        pages.release_resident(pages.present_indices())
        # pages with valid swap copies stay reachable; others are gone with
        # the in-memory state (they were transferred before this is called)
        b.writeback_backlog = 0.0
        b.write_queue.demand = 0.0

    # -- tick protocol -----------------------------------------------------------
    def pre_tick(self, dt: float) -> None:
        """Declare writeback demand; throttle faults under writeback debt.

        Runs *after* the workloads' pre-tick (manager order > workload
        order), so scaling ``fault_queue.demand`` here backpressures this
        tick's swap-ins before arbitration.

        The declaration is unconditional — a binding with zero backlog
        writes demand 0.0 — so stale demand cannot persist when the
        backing device's arbiter disappears mid-run (VMD server loss).
        """
        cap = self.writeback_debt_cap
        for b in self._bindings.values():
            d = b.writeback_backlog
            b.write_queue.demand = d
            if d > cap and b.fault_queue.demand > 0:
                b.fault_queue.demand *= cap / d

    def commit_tick(self, dt: float) -> None:
        """Drain granted writeback; park once no binding owes any (the
        next pre-tick would only declare zero demand)."""
        owed = False
        for b in self._bindings.values():
            g = b.write_queue.granted
            if g > 0:
                b.writeback_backlog = max(0.0, b.writeback_backlog - g)
            if b.writeback_backlog > 0 or b.write_queue.demand > 0:
                owed = True
        if not owed:
            self.park()
