"""The workload engine: closed-loop clients over guest memory.

Model
-----
A workload is a closed loop of ``threads`` client threads issuing
operations against a *query region* of the VM's memory (a page range that
changes over time via a :class:`PhasePlan` — e.g. YCSB first querying
200 MB, later 6 GB of a 9 GB dataset, §V-A). Per operation:

* ``cpu_s_per_op`` seconds of vCPU time;
* ``pages_per_op`` page touches drawn uniformly from the region;
* ``bytes_per_op`` of response traffic to the external client host;
* a touched non-resident page *faults*. Fault service depends on where
  the page lives: the VM's swap device (readahead-amplified block I/O),
  the migration source (post-copy demand paging), or nowhere (fresh
  zero-fill).

Each tick the engine computes the expected per-op fault mix from the page
state counts, declares resource demands (device reads, network), and
after arbitration executes as many whole operations as the binding
resource allows:

``ops = min(cpu bound, thread-latency bound, swap grant, source grant,
network grant)``

then applies the page-state side effects (swap-ins, LRU touches, dirty
bits, evictions via the memory manager). All sampling is vectorized and
seeded; runs are deterministic.
"""

from __future__ import annotations

from dataclasses import dataclass, replace
from typing import Callable, Optional, Protocol, Sequence, runtime_checkable

import numpy as np

from repro.mem.manager import HostMemoryManager, VmMemoryBinding
from repro.metrics.recorder import Recorder
from repro.net.flow import Flow
from repro.net.network import Network
from repro.vm.vm import VirtualMachine

__all__ = ["FaultRouter", "PhasePlan", "Workload", "WorkloadParams"]


@runtime_checkable
class FaultRouter(Protocol):
    """Destination-side fault routing installed by a migration manager.

    While a VM is in its post-copy phase, touched pages that are neither
    resident nor swapped may be *owed by the source* (they were dirtied
    during the pre-copy round, or never transferred at all). The router
    owns the demand-paging channel to the source and tells the workload
    which pages those are.
    """

    def source_pending_mask(self) -> Optional[np.ndarray]:
        """Boolean mask over all VM pages owed by the source, or None."""

    def demand_source(self, n_bytes: float) -> None:
        """Declare demand-paging bytes for this tick (pre phase)."""

    def granted_source(self) -> float:
        """Bytes granted on the demand-paging channel (commit phase)."""

    def notify_fetched(self, idx: np.ndarray) -> None:
        """Pages obtained via demand paging (the source stops pushing them)."""


@dataclass(frozen=True)
class WorkloadParams:
    """Tunable workload characteristics (see module docstring)."""

    cpu_s_per_op: float = 50e-6
    threads: int = 8
    pages_per_op: float = 1.0
    bytes_per_op: float = 1500.0
    write_fraction: float = 0.05
    #: pages dirtied by one write op
    dirty_pages_per_write: float = 1.0
    #: writes land in this prefix fraction of the query region (the hot
    #: write set — e.g. Redis dict/metadata pages are re-dirtied over and
    #: over; uniform dirtying over the whole dataset would wildly
    #: overstate unique dirty bytes and writeback traffic)
    write_region_fraction: float = 1.0
    #: Linux swap readahead: pages of block I/O per swap fault
    readahead: float = 8.0
    #: per-VM swap-in bandwidth ceiling (bytes/s), or None. Swap faults
    #: are synchronous in the faulting vCPU: readahead batching gives
    #: limited parallelism, so a VM cannot pull pages from its swap
    #: device at wire speed no matter how many are missing. This is the
    #: effective queue-depth × cluster / latency product of the real
    #: swap-in path, and it is what keeps a whole host of thrashing VMs
    #: from saturating the fabric.
    max_swapin_bps: Optional[float] = None
    #: service latency charged per fault (blocks a client thread)
    swap_fault_latency_s: float = 250e-6
    source_fault_latency_s: float = 1e-3
    minor_fault_latency_s: float = 5e-6
    #: cap on pages sampled for LRU touch updates per tick (cost control)
    touch_sample_cap: int = 2048

    def scaled(self, **kwargs) -> "WorkloadParams":
        return replace(self, **kwargs)


class PhasePlan:
    """A step function time → queried page range.

    Built from ``(start_time, lo_page, hi_page)`` triples sorted by time;
    the region in force at time *t* is the last phase with start ≤ t.
    """

    def __init__(self, phases: Sequence[tuple[float, int, int]]):
        if not phases:
            raise ValueError("need at least one phase")
        ordered = sorted(phases, key=lambda p: p[0])
        for start, lo, hi in ordered:
            if not 0 <= lo < hi:
                raise ValueError(f"bad region [{lo}, {hi})")
        self._starts = np.array([p[0] for p in ordered])
        self._regions = [(p[1], p[2]) for p in ordered]

    def region_at(self, t: float) -> tuple[int, int]:
        i = int(np.searchsorted(self._starts, t, side="right")) - 1
        if i < 0:
            i = 0
        return self._regions[i]

    @staticmethod
    def constant(lo: int, hi: int) -> "PhasePlan":
        return PhasePlan([(0.0, lo, hi)])


@dataclass
class _TickPlan:
    """Pre-tick estimates carried into the commit phase."""

    lo: int = 0
    hi: int = 0
    ops_bound: float = 0.0
    lam_swap: float = 0.0
    lam_src: float = 0.0
    lam_fresh: float = 0.0
    running: bool = False
    src_mask: Optional[np.ndarray] = None


class Workload:
    """Closed-loop client workload bound to one VM. Tick participant."""

    def __init__(self, vm: VirtualMachine, plan: PhasePlan,
                 network: Network, client_host: str,
                 manager_of: Callable[[str], HostMemoryManager],
                 recorder: Recorder, rng: np.random.Generator,
                 params: Optional[WorkloadParams] = None,
                 distribution: Optional["AccessDistribution"] = None,
                 cpu_of: Optional[Callable[[str], "object"]] = None,
                 sim_now: Optional[Callable[[], float]] = None):
        from repro.workloads.distribution import UniformAccess

        self.vm = vm
        #: optional host-CPU arbiter lookup (host name -> CpuArbiter);
        #: when absent the host CPU is assumed uncontended (the paper's
        #: experiments never oversubscribe cores)
        self.cpu_of = cpu_of
        self._cpu_shares: dict[str, object] = {}
        self.plan = plan
        self.network = network
        self.client_host = client_host
        self.manager_of = manager_of
        self.recorder = recorder
        self.rng = rng
        self.params = params or WorkloadParams()
        self.distribution = distribution or UniformAccess()
        self._now = sim_now or (lambda: 0.0)
        #: installed by a migration manager during the post-copy phase
        self.fault_router: Optional[FaultRouter] = None
        #: vCPU throttle in (0, 1]; pre-copy auto-converge (SDPS-style)
        #: slows the guest down to let the migration catch up with the
        #: dirty rate
        self.cpu_throttle: float = 1.0
        self._flow: Optional[Flow] = None
        self._flow_host: Optional[str] = None
        self._plan_state = _TickPlan()
        self.total_ops = 0.0
        #: carry for fractional ops between ticks (keeps rates unbiased)
        self._op_carry = 0.0
        #: last tick's achieved ops (drives demand sizing, see pre_tick)
        self._last_ops = 0.0
        #: recorder key built once (commit_tick records every tick)
        self._throughput_key = f"{vm.name}.throughput"

    # -- helpers ---------------------------------------------------------------
    def _binding(self) -> VmMemoryBinding:
        return self.manager_of(self.vm.host).binding(self.vm.name)

    def _cpu_share(self):
        """The VM's CPU lane on its *current* host (lazily opened)."""
        if self.cpu_of is None:
            return None
        share = self._cpu_shares.get(self.vm.host)
        if share is None:
            share = self.cpu_of(self.vm.host).open_share(
                f"{self.vm.name}.cpu")
            self._cpu_shares[self.vm.host] = share
        return share

    def _client_flow(self) -> Flow:
        """(Re)open the response-traffic flow from the VM's current host."""
        if self._flow is None or self._flow_host != self.vm.host:
            if self._flow is not None:
                self._flow.close()
            self._flow = self.network.open_flow(
                self.vm.host, self.client_host,
                name=f"{self.vm.name}.client")
            self._flow_host = self.vm.host
        return self._flow

    # -- tick protocol ----------------------------------------------------------
    def pre_tick(self, dt: float) -> None:
        p = self.params
        st = self._plan_state
        st.running = self.vm.is_running
        if not st.running:
            return
        pages = self.vm.pages
        lo, hi = self.plan.region_at(self._now())
        hi = min(hi, pages.n_pages)
        st.lo, st.hi = lo, hi
        n_region = hi - lo
        if n_region <= 0:
            st.ops_bound = 0.0
            return

        present = pages.present[lo:hi]
        swapped = pages.swapped[lo:hi]
        dist = self.distribution

        st.src_mask = None
        p_src = 0.0
        if self.fault_router is not None:
            mask = self.fault_router.source_pending_mask()
            if mask is not None:
                region_src = mask[lo:hi] & ~present & ~swapped
                p_src = dist.class_probability(region_src)
                st.src_mask = mask

        # Per-access probabilities of each fault class, weighted by the
        # access distribution (uniform: plain residency fractions).
        p_swap = dist.class_probability(swapped)
        q = dist.class_probability(~present)
        p_fresh = max(0.0, q - p_swap - p_src)
        st.lam_swap = p.pages_per_op * p_swap
        st.lam_src = p.pages_per_op * p_src
        st.lam_fresh = p.pages_per_op * p_fresh

        # Closed-loop bounds: CPU capacity and thread latency.
        # (source_fault_latency_s includes the network round trip)
        per_op = (p.cpu_s_per_op
                  + st.lam_swap * p.swap_fault_latency_s
                  + st.lam_src * p.source_fault_latency_s
                  + st.lam_fresh * p.minor_fault_latency_s)
        ops_cpu = self.vm.vcpus * dt / p.cpu_s_per_op
        ops_lat = p.threads * dt / per_op
        # auto-converge stalls the guest's vCPUs outright, so every
        # bound scales down — not just the CPU term
        st.ops_bound = min(ops_cpu, ops_lat) * self.cpu_throttle

        # Demands are sized from *achieved* throughput (AIMD-style probe:
        # last tick's ops + 30 % headroom), not the optimistic CPU bound.
        # A thrashing VM whose ops are fault-limited must not declare
        # phantom network demand — on a fair-shared link that phantom
        # would steal real bandwidth from migration streams and peers.
        ops_demand = min(st.ops_bound,
                         max(self._last_ops * 1.3, st.ops_bound * 0.05))

        page_size = pages.page_size
        if st.lam_swap > 0:
            swap_demand = ops_demand * st.lam_swap * p.readahead * page_size
            if p.max_swapin_bps is not None:
                swap_demand = min(swap_demand, p.max_swapin_bps * dt)
            self._binding().fault_queue.demand += swap_demand
        if st.lam_src > 0 and self.fault_router is not None:
            self.fault_router.demand_source(
                ops_demand * st.lam_src * page_size)
        self._client_flow().demand = ops_demand * p.bytes_per_op
        share = self._cpu_share()
        if share is not None:
            share.demand += ops_demand * p.cpu_s_per_op

    def commit_tick(self, dt: float) -> None:
        st = self._plan_state
        t = self._now()
        if not st.running or st.ops_bound <= 0:
            self.recorder.record(self._throughput_key, t, 0.0)
            return
        p = self.params
        pages = self.vm.pages
        page_size = pages.page_size
        mm = self.manager_of(self.vm.host)

        # Resource-limited op counts.
        ops = st.ops_bound
        if st.lam_swap > 0:
            g = self._binding().fault_queue.granted
            ops = min(ops, g / (st.lam_swap * p.readahead * page_size))
        if st.lam_src > 0 and self.fault_router is not None:
            g = self.fault_router.granted_source()
            ops = min(ops, g / (st.lam_src * page_size))
        if p.bytes_per_op > 0:
            ops = min(ops, self._client_flow().granted / p.bytes_per_op)
        share = self._cpu_share()
        if share is not None and p.cpu_s_per_op > 0:
            ops = min(ops, share.granted / p.cpu_s_per_op)
        ops = max(ops, 0.0)

        # Integerize page effects with a fractional carry.
        self._op_carry += ops
        whole_ops = float(np.floor(self._op_carry))
        self._op_carry -= whole_ops

        lo, hi = st.lo, st.hi
        k_swap = self._round(whole_ops * st.lam_swap)
        k_src = self._round(whole_ops * st.lam_src)
        k_fresh = self._round(whole_ops * st.lam_fresh)

        region_present = pages.present[lo:hi]
        region_swapped = pages.swapped[lo:hi]

        if k_swap > 0:
            idx = self._sample(lo, region_swapped, k_swap)
            if idx.size:
                mm.fault_in(self.vm.name, idx)
                # readahead reads extra device bytes beyond the fault page
                extra = (p.readahead - 1.0) * idx.size * page_size
                if extra > 0:
                    self._binding().cgroup.account_swap_in(extra)
        if k_src > 0 and st.src_mask is not None:
            cand = st.src_mask[lo:hi] & ~region_present & ~region_swapped
            idx = self._sample(lo, cand, k_src)
            if idx.size:
                mm.fault_in(self.vm.name, idx)
                self.fault_router.notify_fetched(idx)
        if k_fresh > 0:
            cand = ~pages.present[lo:hi] & ~pages.swapped[lo:hi]
            if st.src_mask is not None:
                cand &= ~st.src_mask[lo:hi]
            idx = self._sample(lo, cand, k_fresh)
            if idx.size:
                mm.fault_in(self.vm.name, idx)

        # LRU touches on hit pages (sampled, capped). Using the access
        # distribution keeps hot pages recently-used under skewed access,
        # which is what makes LRU retain the hot set.
        n_touch = int(min(whole_ops * p.pages_per_op, p.touch_sample_cap))
        if n_touch > 0:
            touched = self._sample(lo, pages.present[lo:hi], n_touch)
            if touched.size:
                pages.touch(touched, mm.tick)

        # Writes dirty pages within the hot write set.
        k_dirty = self._round(
            whole_ops * p.write_fraction * p.dirty_pages_per_write)
        if k_dirty > 0:
            # the write set is a prefix of the region: sample its view
            w_len = max(1, int((hi - lo) * p.write_region_fraction))
            idx = self._sample(lo, pages.present[lo:min(hi, lo + w_len)],
                               k_dirty, region=hi - lo)
            if idx.size:
                mm.dirty(self.vm.name, idx)

        self.total_ops += whole_ops
        self._last_ops = ops
        self.recorder.record(self._throughput_key, t, whole_ops / dt)

    # -- internals ---------------------------------------------------------------
    def _round(self, x: float) -> int:
        """Probabilistic rounding: unbiased at low rates."""
        base = int(np.floor(x))
        frac = x - base
        return base + (1 if self.rng.random() < frac else 0)

    def _sample(self, lo: int, region_mask: np.ndarray, k: int,
                region: Optional[int] = None) -> np.ndarray:
        """Sample up to ``k`` distinct pages of a region-relative class,
        weighted by the access distribution; returns absolute indices.
        ``region_mask`` may cover only a prefix of a ``region``-page
        region."""
        return lo + self.distribution.sample(region_mask, k, self.rng,
                                             region=region)
