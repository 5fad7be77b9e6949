"""Shared migration machinery.

All four engines move page data through the same pipeline:

* an ordered **scan** over a pending-page bitmap (:class:`PendingScan`) —
  QEMU's dirty-bitmap walk;
* a source-side **swap read queue** — pages that are swapped out at the
  source must be read from the swap device before they can be sent
  (pre/post-copy) — this is the paper's observation that the Migration
  Manager competes with the VMs for the swap device;
* a :class:`~repro.net.StreamChannel` carrying page batches to the
  destination, with a bounded in-flight backlog as flow control;
* a destination **incoming image**: the KVM/QEMU process started at the
  destination before migration, whose memory is registered with the
  destination host so that incoming pages are subject to the
  destination's own memory pressure.

:class:`MigrationManager` holds the phase steps the engines share: the
``start`` preamble (:meth:`~MigrationManager._start`), the take→send→
deliver step over the scan (:meth:`~MigrationManager._send_pages`) and
the destination's demand-paging channel
(:meth:`~MigrationManager._open_umem`). Subclasses implement the
technique-specific phase logic on top.
"""

from __future__ import annotations

import enum
from dataclasses import dataclass
from typing import Callable, Optional

import numpy as np

from repro.core.umem import UmemFaultHandler
from repro.host.host import Host
from repro.mem.cgroup import Cgroup
from repro.mem.device import DeviceQueue, SwapBackend
from repro.mem.pages import PageSet
from repro.metrics.recorder import Recorder
from repro.net.channel import StreamChannel
from repro.net.network import Network
from repro.obs.tracer import NULL_TRACER
from repro.sim.kernel import Simulator
from repro.telemetry.instruments import NULL_METRICS
from repro.vm.vm import VirtualMachine, VmState
from repro.vmd.namespace import VMDNamespace

__all__ = [
    "BULK_PRIORITY",
    "DEMAND_PRIORITY",
    "IncomingImage",
    "MigrationConfig",
    "MigrationManager",
    "MigrationOutcome",
    "MigrationPhase",
    "MigrationReport",
    "PendingScan",
]


class MigrationPhase(enum.Enum):
    IDLE = "idle"
    LIVE_ROUND = "live-round"       # pre-copy iterations / Agile's one round
    STOPCOPY = "stop-and-copy"      # VM suspended, final state in flight
    PUSH = "active-push"            # post-copy phase at the source
    DONE = "done"


class MigrationOutcome(enum.Enum):
    """How a migration attempt ended.

    The fault decision table (who may call :meth:`MigrationManager.abort`
    vs :meth:`MigrationManager.fail_vm`):

    ========================  =========================================
    destination crash, before  ABORTED — the source copy is authoritative,
    the switchover             the VM resumes (or keeps running) there
    destination crash, after   FAILED — split-state window: CPU is at the
    the switchover, before     destination, part of memory still at the
    the transfer finishes      source; neither side has a whole VM
    source crash, any time     FAILED — pre-switch the VM ran there;
    before the finish          post-switch the unpushed pages die with it
    VMD donor crash losing     FAILED — the VM's swap pages are gone
    the only copy              (replication == 1)
    VMD donor crash with a     migration *continues*; the namespace
    surviving copy             re-replicates in the background
    ========================  =========================================

    Pre-copy's switchover and finish are atomic (the same stream
    callback), so pre-copy has no split-state window: a destination
    crash at any point before completion aborts cleanly.
    """

    COMPLETED = "completed"
    #: rolled back; the VM kept running at the source
    ABORTED = "aborted"
    #: the VM was lost
    FAILED = "failed"
    #: aborted, and a supervisor re-dispatched the migration
    RETRIED = "retried"


@dataclass
class MigrationReport:
    """Everything the evaluation tables/figures need about one migration."""

    technique: str
    vm_name: str
    #: endpoints of this attempt (a supervisor may re-plan between
    #: attempts, so per-attempt reports can name different destinations)
    src_host: str = ""
    dst_host: str = ""
    start_time: float = 0.0
    #: CPU state handed over; VM resumed at the destination
    switch_time: Optional[float] = None
    #: all state transferred; source memory freed
    end_time: Optional[float] = None
    downtime: Optional[float] = None
    rounds: int = 0
    #: bytes of page data sent during live rounds
    precopy_bytes: float = 0.0
    #: bytes of page data sent while the VM was suspended
    stopcopy_bytes: float = 0.0
    #: bytes actively pushed after the switch
    push_bytes: float = 0.0
    #: bytes served via demand paging from the source
    demand_bytes: float = 0.0
    #: control metadata: swap offsets, dirty bitmap, CPU state
    metadata_bytes: float = 0.0
    pages_sent: int = 0
    pages_skipped_swapped: int = 0
    pages_demand_fetched: int = 0
    #: scatter-gather: bytes staged from the source onto the VMD
    scatter_bytes: float = 0.0
    #: scatter-gather: when the source's memory was fully evicted
    source_free_time: Optional[float] = None
    #: scatter-gather: background gather reads at the destination (swap
    #: traffic, reported separately from migration transfer)
    gather_bytes: float = 0.0
    #: how the attempt ended (None while still in flight)
    outcome: Optional[MigrationOutcome] = None
    #: human-readable cause for ABORTED/FAILED outcomes
    failure_reason: str = ""
    #: 0 for the first attempt; incremented by a supervisor on retry
    attempt: int = 0

    @property
    def total_bytes(self) -> float:
        return (self.precopy_bytes + self.stopcopy_bytes + self.push_bytes
                + self.demand_bytes + self.metadata_bytes
                + self.scatter_bytes)

    @property
    def total_time(self) -> Optional[float]:
        if self.end_time is None:
            return None
        return self.end_time - self.start_time


#: priority class of bulk migration traffic
BULK_PRIORITY = 1
#: priority class of demand-paging traffic (served first)
DEMAND_PRIORITY = 0


@dataclass(frozen=True)
class MigrationConfig:
    """Knobs common to all techniques."""

    #: stream flow-control window (bytes in flight); must comfortably
    #: exceed one tick of NIC throughput or it throttles the stream
    backlog_cap_bytes: float = 64 * 2 ** 20
    #: pre-copy: stop when the dirty set is at most this many bytes
    stopcopy_threshold_bytes: float = 32 * 2 ** 20
    #: pre-copy: give up converging after this many live rounds
    max_rounds: int = 30
    #: ceiling on the migration thread's swap reads (bytes/s). The
    #: Migration Manager reads a swapped page by touching its mapped
    #: address — a synchronous fault in a single thread — so it cannot
    #: drain the swap device at full bandwidth (§I: the migration tool
    #: "may need to compete with VM's applications for access to the
    #: swap device"). None disables the cap.
    max_swapin_bps: float | None = 20e6


class IncomingImage:
    """The destination-side KVM/QEMU process awaiting the VM.

    Duck-types the parts of :class:`~repro.vm.VirtualMachine` that
    :meth:`HostMemoryManager.register_vm` needs (``name`` and ``pages``),
    so incoming pages participate in destination memory management before
    the real VM object moves over.
    """

    def __init__(self, vm: VirtualMachine):
        self.name = f"{vm.name}.incoming"
        self.pages = PageSet(vm.n_pages, vm.pages.page_size)


class PendingScan:
    """Ordered walk over a set of pending pages with budgeted batches.

    The walk is strictly in page order, like QEMU's bitmap scan: when the
    next page needs swap-device I/O and the device budget is exhausted,
    the scan stalls even if network budget remains — this ordering is what
    couples migration speed to swap thrashing for the baselines.
    """

    def __init__(self, pending: np.ndarray):
        self.pending = pending.copy()
        self._order = np.flatnonzero(self.pending)
        self._cursor = 0

    @property
    def remaining(self) -> int:
        return int(np.count_nonzero(self.pending))

    def exhausted(self) -> bool:
        """The scan pointer walked past every page (pending or removed)."""
        self._skip_cleared()
        return self._cursor >= self._order.size

    def remove(self, idx: np.ndarray) -> None:
        """Un-pend pages (delivered out of band, e.g. demand-fetched)."""
        self.pending[idx] = False

    def _skip_cleared(self) -> None:
        order = self._order
        cur = self._cursor
        n = order.size
        if cur >= n or self.pending[order[cur]]:
            return
        # Long cleared runs (demand-fetched spans, delivered prefixes)
        # are skipped in vectorized chunks instead of one Python-loop
        # iteration per page.
        chunk = 256
        while cur < n:
            window = order[cur:cur + chunk]
            live = np.flatnonzero(self.pending[window])
            if live.size:
                cur += int(live[0])
                break
            cur += window.size
            chunk = min(chunk * 4, 1 << 20)
        self._cursor = cur

    def peek_swapped_count(self, swapped: np.ndarray, window: int) -> int:
        """Swapped pages among the next ``window`` live pending pages.

        This — not the average swapped fraction — sizes the swap-read
        demand correctly: the scan is strictly ordered, so even a handful
        of swapped pages at its head need a whole-page read grant to
        unblock everything behind them.
        """
        if window <= 0:
            return 0
        self._skip_cleared()
        ahead = self._order[self._cursor:self._cursor + 2 * window + 64]
        if ahead.size == 0:
            return 0
        live = ahead[self.pending[ahead]][:window]
        if live.size == 0:
            return 0
        return int(np.count_nonzero(swapped[live]))

    def take(self, max_pages: int, device_pages: int,
             swapped: np.ndarray,
             free_swapped: bool = False) -> tuple[np.ndarray, np.ndarray]:
        """Advance the scan by up to ``max_pages`` pages in order.

        Every taken page costs one unit of ``max_pages``; a page that is
        currently swapped additionally costs one unit of ``device_pages``
        unless ``free_swapped`` (Agile sends offsets instead of data, so
        cold pages cost no I/O). The scan stops at the first page whose
        budget class is exhausted.

        Returns ``(resident_idx, swapped_idx)`` of pages taken; both are
        cleared from the pending set.
        """
        return self.take_weighted(float(max_pages), device_pages, swapped,
                                  resident_cost=1.0, swapped_cost=1.0,
                                  free_swapped=free_swapped)

    def take_weighted(self, budget: float, device_pages: int,
                      swapped: np.ndarray, resident_cost: float,
                      swapped_cost: float, free_swapped: bool = False
                      ) -> tuple[np.ndarray, np.ndarray]:
        """Like :meth:`take`, with per-class wire costs.

        ``budget`` is in the same unit as the costs (bytes for real
        streams). Agile's live round charges full ``page_size`` for a
        resident page but only the tiny SWAPPED-flag message for a cold
        page, so a run of cold pages consumes almost no stream budget.
        """
        empty = np.empty(0, np.int64)
        if budget <= 0:
            return empty, empty
        res_parts: list[np.ndarray] = []
        swp_parts: list[np.ndarray] = []
        budget_left = float(budget)
        dev_left = int(device_pages)
        min_cost = min(resident_cost, swapped_cost)
        if min_cost <= 0:
            raise ValueError("page costs must be positive")
        order = self._order
        # Window sizing: start from what the budget could possibly take
        # if every page cost the expensive class, then grow
        # geometrically (a cold run of cheap SWAPPED-flag messages needs
        # more pages than the first guess). Chunked processing of the
        # same ordered prefix is bit-identical regardless of chunk
        # boundaries: page costs are integer-valued floats (cumsums
        # exact below 2^53) and the budget subtraction is exact for
        # byte-scale budgets, so the cut points — and hence the pages
        # taken and the stall position — cannot differ.
        max_cost = max(resident_cost, swapped_cost)
        window_pages = max(64, min(1024, int(budget_left // max_cost) + 1))
        while budget_left >= min_cost:
            self._skip_cleared()
            cur = self._cursor
            if cur >= order.size:
                break
            window = order[cur:cur + window_pages]
            window_pages = min(window_pages * 4, 1 << 22)
            live = window[self.pending[window]]
            if live.size == 0:
                self._cursor = cur + window.size
                continue
            is_sw = swapped[live]
            n_sw = int(np.count_nonzero(is_sw))
            if n_sw == 0 or n_sw == live.size:
                # Uniform window (the common case: a hot run of resident
                # pages or a cold run of swapped ones): the prefix sums
                # are multiples of one cost, so the budget cut is a
                # division — no cumsum/searchsorted. Costs are
                # integer-valued floats, so n*cost is the exact value
                # the cumsum would produce.
                cost_one = swapped_cost if n_sw else resident_cost
                n_budget = int(budget_left // cost_one)
                # float floor division can land one off at the exact
                # boundary; nudge to the cumsum's n*cost <= budget rule
                # (n*cost_one is exact for integer-valued costs)
                while n_budget * cost_one > budget_left:
                    n_budget -= 1
                while (n_budget + 1) * cost_one <= budget_left:
                    n_budget += 1
                n_ok = min(n_budget, live.size)
                if not free_swapped and n_sw:
                    n_ok = min(n_ok, dev_left)
                if n_ok == 0:
                    break  # strict in-order stall
                taken = live[:n_ok]
                spent = float(n_ok) * cost_one
                if n_sw:
                    if not free_swapped:
                        dev_left -= n_ok
                    swp_parts.append(taken)
                else:
                    res_parts.append(taken)
            else:
                cost = np.where(is_sw, swapped_cost, resident_cost)
                cost_cum = np.cumsum(cost)
                n_budget = int(np.searchsorted(cost_cum, budget_left,
                                               side="right"))
                if free_swapped:
                    n_ok = min(n_budget, live.size)
                else:
                    dev_cum = np.cumsum(is_sw.astype(np.int64))
                    n_dev = int(np.searchsorted(dev_cum, dev_left,
                                                side="right"))
                    n_ok = min(n_budget, live.size, n_dev)
                if n_ok == 0:
                    break  # strict in-order stall (device or stream budget)
                taken = live[:n_ok]
                taken_sw = is_sw[:n_ok]
                if not free_swapped:
                    dev_left -= int(np.count_nonzero(taken_sw))
                spent = float(cost_cum[n_ok - 1])
                res_parts.append(taken[~taken_sw])
                swp_parts.append(taken[taken_sw])
            self.pending[taken] = False
            budget_left -= spent
            self._cursor = cur + int(
                np.searchsorted(window, taken[-1], side="right"))
            if n_ok < live.size:
                break  # stopped mid-window on a budget
        # single-window takes (the common case) return the part directly
        # instead of paying a concatenate copy
        if len(res_parts) == 1:
            res = res_parts[0]
        else:
            res = np.concatenate(res_parts) if res_parts else empty
        if len(swp_parts) == 1:
            swp = swp_parts[0]
        else:
            swp = np.concatenate(swp_parts) if swp_parts else empty
        return res, swp


class MigrationManager:
    """Base class: owns the stream, queues, report, and switch/finish."""

    technique = "base"

    def __init__(self, sim: Simulator, network: Network,
                 src: Host, dst: Host, vm: VirtualMachine,
                 recorder: Recorder,
                 dst_backend: Optional[SwapBackend] = None,
                 config: Optional[MigrationConfig] = None,
                 workload=None, tracer=None, metrics=None):
        self.sim = sim
        self.network = network
        self.src = src
        self.dst = dst
        self.vm = vm
        self.recorder = recorder
        self.config = config or MigrationConfig()
        self.workload = workload
        self.tracer = tracer if tracer is not None else NULL_TRACER
        #: live-metrics sink (see :mod:`repro.telemetry`); outcome
        #: counters and per-phase byte/stall histograms land here
        self.metrics = metrics if metrics is not None else NULL_METRICS
        #: trace track: one timeline per VM (DESIGN.md §8)
        self._track = f"vm:{vm.name}"
        self._phase_span_open = False
        self._migration_span_open = False
        self.report = MigrationReport(self.technique, vm.name,
                                      src_host=src.name, dst_host=dst.name)
        self.phase = MigrationPhase.IDLE
        #: recorder key built once (commit_tick records every tick)
        self._bytes_key = f"migration.{vm.name}.bytes"

        self.src_binding = src.memory.binding(vm.name)
        self.src_pages = self.src_binding.pages
        #: destination swap backend; defaults to carrying the source one
        #: (correct for Agile's portable per-VM device)
        self.dst_backend = dst_backend or self.src_binding.backend

        # Destination-side incoming image, registered immediately — the
        # destination QEMU process allocates the VM's memory up front.
        self.image = IncomingImage(vm)
        self.dst_pages = self.image.pages
        self._dst_cgroup = Cgroup(
            f"cg.{vm.name}", self.src_binding.cgroup.reservation_bytes)
        dst.memory.register_vm(self.image, self._dst_cgroup,
                               self.dst_backend)

        # Bulk transfer stream and source swap-read lane.
        self.stream = StreamChannel(
            sim, network, src.name, dst.name,
            priority=BULK_PRIORITY,
            name=f"mig:{vm.name}", tracer=self.tracer)
        self.src_read_q: DeviceQueue = self.src_binding.backend.open_queue(
            f"{vm.name}.mig.read", "read", host=src.name)

        self.scan: Optional[PendingScan] = None
        self._suspend_started: Optional[float] = None
        self.done = sim.event(f"mig:{vm.name}:done")
        #: fires when the manager's tick work ends and the launch path
        #: may unregister it: with the report (:attr:`done`) for every
        #: engine but scatter-gather, whose gather outlives the report
        self.ticks_done = self.done

    # -- lifecycle helpers ---------------------------------------------------
    def start(self) -> None:
        raise NotImplementedError

    def _start(self, pending: np.ndarray) -> None:
        """The ``start`` preamble every engine shares: the migration
        begins, takes over the VM's dirty bitmap, and its scan walks
        ``pending``."""
        if self.phase is not MigrationPhase.IDLE:
            raise RuntimeError("migration already started")
        self._begin()
        self.vm.migrating = True
        self.src_pages.dirty[:] = False
        self.scan = PendingScan(pending)

    def _allocated(self) -> np.ndarray:
        """Pages the VM holds at the source, resident or swapped."""
        return self.src_pages.present | self.src_pages.swapped

    def _begin(self) -> None:
        self.report.start_time = self.sim.now
        if self.tracer.enabled:
            self.tracer.begin(
                self._track,
                f"{self.technique} {self.src.name}->{self.dst.name}",
                cat="migration",
                args={"vm": self.vm.name, "src": self.src.name,
                      "dst": self.dst.name,
                      "attempt": self.report.attempt})
            self._migration_span_open = True

    # -- tracing helpers -----------------------------------------------------
    def _trace_phase(self, name: str, args: Optional[dict] = None) -> None:
        """Open the span for a migration phase, closing the previous one
        (phases on a VM track are sequential, never overlapping)."""
        if not self.tracer.enabled:
            return
        if self._phase_span_open:
            self.tracer.end(self._track)
        self.tracer.begin(self._track, name, cat="phase", args=args)
        self._phase_span_open = True

    def _trace_phase_end(self, args: Optional[dict] = None) -> None:
        if self._phase_span_open:
            self.tracer.end(self._track, args=args)
            self._phase_span_open = False

    def _trace_close(self, outcome: str, reason: str = "") -> None:
        """Close the phase and migration spans with the final verdict."""
        self._trace_phase_end()
        if self._migration_span_open:
            args = {"outcome": outcome}
            if reason:
                args["reason"] = reason
            self.tracer.end(self._track, args=args)
            self._migration_span_open = False

    def _page_size(self) -> int:
        return self.src_pages.page_size

    def _deliver_to_dst(self, idx: np.ndarray) -> None:
        """Mark pages arrived in the destination image (on job delivery)."""
        name = (self.image.name if self.dst.memory.has_vm(self.image.name)
                else self.vm.name)
        self.dst.memory.fault_in(name, idx)

    def _suspend_vm(self) -> None:
        if self.vm.is_running:
            self.vm.suspend()
        self._suspend_started = self.sim.now

    def _switch_to_destination(self) -> None:
        """CPU state arrived: resume the VM at the destination.

        Re-keys the destination binding from the incoming image to the
        real VM (carrying page state and writeback backlog across).
        """
        image_binding = self.dst.memory.binding(self.image.name)
        backlog = image_binding.writeback_backlog
        self.dst.memory.unregister_vm(self.image.name)
        self.vm.resume(host=self.dst.name, pages=self.dst_pages)
        self.dst.place_vm_with_cgroup(self.vm, self._dst_cgroup,
                                      self.dst_backend, backlog)
        self.report.switch_time = self.sim.now
        if self._suspend_started is not None:
            self.report.downtime = self.sim.now - self._suspend_started
        if self.tracer.enabled:
            self.tracer.instant(
                self._track, "switch", cat="migration",
                args={"downtime_s": self.report.downtime,
                      "dst": self.dst.name})

    def _finish(self) -> None:
        """All state transferred: free the source and complete."""
        self.phase = MigrationPhase.DONE
        self.src.release_vm(self.vm.name)
        self.src_read_q.close()
        self.stream.close()
        if self.workload is not None:
            self.workload.fault_router = None
            self.workload.cpu_throttle = 1.0  # lift any auto-converge brake
        self.report.end_time = self.sim.now
        self.report.outcome = MigrationOutcome.COMPLETED
        self.vm.migrating = False
        self._record_outcome()
        self._trace_close(MigrationOutcome.COMPLETED.value)
        if not self.done.triggered:
            self.done.succeed(self.report)

    def _record_outcome(self) -> None:
        """Publish the finished attempt's aggregates to the metrics
        registry (no-op under :data:`NULL_METRICS`)."""
        if not self.metrics.enabled:
            return
        m = self.metrics
        rep = self.report
        m.counter(f"migration.outcome.{rep.outcome.value}").inc()
        m.counter("migration.attempts").inc()
        if rep.total_time is not None:
            m.histogram("migration.duration_s").observe(rep.total_time)
        if rep.outcome is MigrationOutcome.COMPLETED:
            if rep.downtime is not None:
                m.histogram("migration.downtime_s").observe(rep.downtime)
            m.histogram("migration.rounds").observe(rep.rounds)
            m.histogram("migration.total_bytes").observe(rep.total_bytes)
            for phase in ("precopy", "stopcopy", "push", "demand",
                          "scatter", "gather"):
                nbytes = getattr(rep, f"{phase}_bytes")
                if nbytes > 0:
                    m.histogram(f"migration.{phase}_bytes").observe(nbytes)

    # -- recovery (see the MigrationOutcome decision table) ---------------------
    def _abort_cleanup(self) -> None:
        """Technique-specific teardown hook run first by :meth:`abort`
        and :meth:`fail_vm` (close umem handlers, VMD staging queues...)."""

    def _teardown_transfer(self) -> None:
        """Close the transfer machinery; pending stream callbacks never
        fire (:meth:`StreamChannel.close` drops queued jobs)."""
        self.stream.close()
        self.src_read_q.close()
        if self.workload is not None:
            self.workload.fault_router = None
            self.workload.cpu_throttle = 1.0
        self.vm.migrating = False

    def _drop_incoming_image(self) -> None:
        """Tear down the destination-side QEMU process (pre-switch only:
        after the switch the image binding was re-keyed to the VM)."""
        if self.dst.memory.has_vm(self.image.name):
            self.dst.memory.free_vm_memory(self.image.name)
            self.dst.memory.unregister_vm(self.image.name)

    def abort(self, reason: str = "") -> None:
        """Roll the migration back; the VM keeps running at the source.

        Only legal before the switchover: up to that point the source
        copy is authoritative and nothing irreversible has happened —
        the destination image is discarded, in-flight stream jobs are
        dropped, and a VM suspended for stop-and-copy simply resumes
        where it is. After the switchover there is no whole source copy
        to fall back to; use :meth:`fail_vm`.
        """
        if self.phase is MigrationPhase.DONE or self.done.triggered:
            return
        if self.report.switch_time is not None:
            raise RuntimeError(
                "cannot abort after the switchover (split state); "
                "use fail_vm")
        self.phase = MigrationPhase.DONE
        self._abort_cleanup()
        self._drop_incoming_image()
        self._teardown_transfer()
        if self.vm.state is VmState.SUSPENDED:
            self.vm.resume()  # same host, same pages
        self.report.outcome = MigrationOutcome.ABORTED
        self.report.failure_reason = reason
        self.report.end_time = self.sim.now
        self._record_outcome()
        self._trace_close(MigrationOutcome.ABORTED.value, reason)
        self.done.succeed(self.report)

    def fail_vm(self, reason: str = "") -> None:
        """The VM is unrecoverable: terminate it and release both sides."""
        if self.phase is MigrationPhase.DONE or self.done.triggered:
            return
        self.phase = MigrationPhase.DONE
        self._abort_cleanup()
        if self.vm.state is not VmState.TERMINATED:
            self.src.terminate_vm(self.vm.name)
        self._drop_incoming_image()
        for host in (self.src, self.dst):
            host.release_vm(self.vm.name)
        self._teardown_transfer()
        self.report.outcome = MigrationOutcome.FAILED
        self.report.failure_reason = reason
        self.report.end_time = self.sim.now
        self._record_outcome()
        self._trace_close(MigrationOutcome.FAILED.value, reason)
        self.done.succeed(self.report)

    def on_host_crash(self, host_name: str) -> None:
        """React to a host crash per the decision table above."""
        if self.phase in (MigrationPhase.IDLE, MigrationPhase.DONE):
            return
        if host_name == self.dst.name:
            if self.report.switch_time is None:
                self.abort(f"destination host {host_name} crashed")
            else:
                self.fail_vm(f"destination host {host_name} crashed in "
                             f"the split-state window")
        elif host_name == self.src.name:
            if self.report.switch_time is None:
                self.fail_vm(f"source host {host_name} crashed while the "
                             f"VM ran there")
            else:
                self.fail_vm(f"source host {host_name} crashed before the "
                             f"push drained")

    def on_vmd_crash(self, host_name: str) -> None:
        """React to a VMD donor crash.

        Only matters for VMD-backed techniques: if the VM's portable
        swap device lost its only copy of any page, the VM cannot
        continue on either side. With a surviving replica the migration
        proceeds — the namespace re-replicates in the background.
        """
        if self.phase in (MigrationPhase.IDLE, MigrationPhase.DONE):
            return
        backend = self.dst_backend
        if isinstance(backend, VMDNamespace) and backend.data_lost:
            self.fail_vm(f"VMD donor on {host_name} lost the only copy of "
                         f"part of the swap device")

    # -- tick protocol (subclasses extend) -------------------------------------
    def pre_tick(self, dt: float) -> None:
        self.stream.pre_tick(dt)

    def commit_tick(self, dt: float) -> None:
        self.stream.commit_tick(dt)
        if self.phase not in (MigrationPhase.IDLE, MigrationPhase.DONE):
            # progress telemetry for plots: cumulative transfer volume
            self.recorder.record(self._bytes_key,
                                 self.sim.now, self.report.total_bytes)

    # -- shared helpers for the scan pipeline ----------------------------------
    def _send_pages(self, counter: str, max_pages: Optional[int] = None,
                    device_pages: int = 0, msg_bytes: Optional[int] = None,
                    deliver: Optional[Callable[[np.ndarray], None]] = None
                    ) -> np.ndarray:
        """The take→send→deliver step: advance the scan in page order,
        charge the pages' data to ``report.<counter>`` and queue them on
        the stream; ``deliver`` (default: fault them into the
        destination image) runs when they land. Returns the pages taken.

        The budgets default to the stream's free backlog and the source
        swap-read grant. With ``msg_bytes`` the page data goes elsewhere
        (scatter-gather stages it on the VMD): swapped pages cost no
        I/O, only resident pages count as data, and the stream carries
        one ``msg_bytes`` location message per page as metadata.
        """
        page = self._page_size()
        if max_pages is None:
            device_pages = int(self.src_read_q.granted // page)
            max_pages = self._stream_room_pages()
        res, swp = self.scan.take(max_pages, device_pages,
                                  self.src_pages.swapped,
                                  free_swapped=msg_bytes is not None)
        taken = np.concatenate([res, swp])
        if taken.size:
            if msg_bytes is None:
                data_pages = taken.size
                wire = float(taken.size) * page
            else:
                data_pages = res.size
                wire = taken.size * msg_bytes
                self.report.metadata_bytes += wire
            rep = self.report
            setattr(rep, counter,
                    getattr(rep, counter) + float(data_pages) * page)
            rep.pages_sent += int(data_pages)
            deliver = deliver or self._deliver_to_dst
            self.stream.send(wire, info=taken,
                             on_complete=lambda job: deliver(job.info))
        return taken

    def _open_umem(self) -> UmemFaultHandler:
        """The destination's demand-paging channel: faults on pages the
        scan still owes are fetched from the source (§IV-F)."""
        return UmemFaultHandler(
            self.network, self.src.name, self.dst.name, self.vm.name,
            self.scan, self.src_pages, self.src_binding.backend,
            self.report, priority=DEMAND_PRIORITY, tracer=self.tracer,
            track=self._track, metrics=self.metrics)

    def _stream_room_pages(self) -> int:
        return int(max(0.0, self.config.backlog_cap_bytes
                       - self.stream.backlog) // self._page_size())

    def _demand_swap_reads(self, dt: float) -> None:
        """Request exactly the swap reads the next scan window needs.

        The scan is strictly ordered, so the demand is the *count* of
        swapped pages in the upcoming window — an average-fraction
        estimate deadlocks when a few swapped pages head the scan.
        """
        if self.scan is None or self.scan.exhausted():
            return
        n = self.scan.peek_swapped_count(self.src_pages.swapped,
                                         self._stream_room_pages())
        if n > 0:
            demand = float(n) * self._page_size()
            if self.config.max_swapin_bps is not None:
                demand = min(demand, self.config.max_swapin_bps * dt)
            self.src_read_q.demand += demand
