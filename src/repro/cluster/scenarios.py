"""Scenario builders reproducing the paper's testbed (§V).

Two experiment families:

* :func:`make_single_vm_lab` — §V-B / Figures 7-8: one idle or busy VM on
  a 6 GB source host, migrated to an equally small destination while the
  VM's memory size sweeps past the host's capacity;
* :func:`make_pressure_scenario` — §V-A / §V-C / Figures 4-6 and
  Tables I-III: four 10 GB VMs on a 23 GB source host running YCSB/Redis
  or Sysbench/MySQL; one VM is migrated to relieve memory pressure.

Scale note (DESIGN.md §1): page state is modeled at a 32 KiB *cluster*
granularity for the big scenarios — one fault swaps in one cluster, which
matches Linux's 32 KiB (8-page) swap readahead exactly while shrinking the
page arrays 8×. All sizes, bandwidths, and times are unscaled. The per-write
dirty granularity is rescaled to real 4 KiB pages via the
``dirty_pages_per_write`` parameter so dirtying rates stay faithful.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Callable, Literal, Optional

from repro.cluster.setup import preload_dataset
from repro.cluster.world import World
from repro.core import ENGINES
from repro.core.base import MigrationConfig, MigrationManager
from repro.faults.recovery import MigrationSupervisor, RetryPolicy
from repro.mem.device import SwapBackend
from repro.util import GiB, KiB, MiB
from repro.vm.vm import VirtualMachine
from repro.workloads.base import WorkloadParams
from repro.workloads.idle import IdleWorkload
from repro.workloads.kv import KeyValueWorkload, ycsb_redis_params
from repro.workloads.oltp import OLTPWorkload, sysbench_mysql_params

__all__ = [
    "Technique",
    "TestbedConfig",
    "MigrationLab",
    "make_single_vm_lab",
    "make_pressure_scenario",
    "scale_params_to_page",
]

Technique = Literal["pre-copy", "post-copy", "agile", "scatter-gather"]


def scale_params_to_page(params: WorkloadParams,
                         page_size: int) -> WorkloadParams:
    """Adjust granularity-sensitive workload knobs to the model page size.

    * fault I/O: one fault reads one model page (cluster); the base
      ``readahead`` is defined against 4 KiB pages, so rescale it to keep
      bytes-per-fault ≈ readahead × 4 KiB (floored at one cluster);
    * dirtying: a guest write dirties 4 KiB, i.e. a fraction
      ``4 KiB / page_size`` of a cluster.
    """
    ratio = 4096 / page_size
    return params.scaled(
        readahead=max(1.0, params.readahead * ratio),
        dirty_pages_per_write=params.dirty_pages_per_write * ratio,
    )


@dataclass(frozen=True)
class TestbedConfig:
    """The paper's hardware, §V: 1 Gbps Ethernet, SSD swap, 12-core hosts."""

    __test__ = False  # not a pytest class despite the name

    dt: float = 0.25
    seed: int = 0
    page_size: int = 32 * KiB
    net_bandwidth_bps: float = 117e6     # 1 Gbps goodput
    net_latency_s: float = 2e-4
    #: effective random-access swap bandwidth of the 2013-era SATA SSD —
    #: far below its sequential spec sheet, which is what makes the swap
    #: device the bottleneck the paper describes
    ssd_read_bps: float = 60e6
    ssd_write_bps: float = 40e6
    ssd_mixed_efficiency: float = 0.65
    ssd_capacity_bytes: float = 30 * GiB  # the paper's 30 GB swap partition
    vmd_server_bytes: float = 64 * GiB
    #: number of intermediate hosts donating memory to the VMD (the paper
    #: uses one and argues performance is insensitive to the count)
    vmd_servers: int = 1
    #: copies of every page the VMD keeps (must be ≤ vmd_servers);
    #: replication ≥ 2 survives a content-losing donor crash
    vmd_replication: int = 1
    host_os_bytes: float = 200 * MiB
    migration: MigrationConfig = field(default_factory=MigrationConfig)


@dataclass
class MigrationLab:
    """A wired scenario plus handles for driving the migration."""

    world: World
    #: engine class the migration runs: ``ENGINES[technique]`` from the
    #: builders; a ``functools.partial`` of one carries engine arguments
    engine: Callable[..., MigrationManager]
    config: TestbedConfig
    vms: list[VirtualMachine]
    workloads: list
    migrate_vm: VirtualMachine
    dst_backend_for_migration: Optional[SwapBackend]
    manager: Optional[MigrationManager] = None
    supervisor: Optional[MigrationSupervisor] = None
    final: Optional[object] = None       # Event with the final attempt report

    @property
    def src(self):
        return self.world.hosts["src"]

    @property
    def dst(self):
        return self.world.hosts["dst"]

    def workload_of(self, vm: VirtualMachine):
        for wl in self.workloads:
            if wl.vm is vm:
                return wl
        return None

    def start_migration_at(self, t: float) -> None:
        """Schedule the migration of ``migrate_vm`` at simulation time t:
        one supervised attempt, never retried."""
        self.start_supervised_migration_at(
            t, policy=RetryPolicy(max_retries=0))

    def manager_factory(self) -> MigrationManager:
        """Build a fresh (unstarted, unregistered) manager for
        ``migrate_vm``; remembered on :attr:`manager`."""
        self.manager = self.engine(
            self.world.sim, self.world.network, self.src, self.dst,
            self.migrate_vm, self.world.recorder,
            dst_backend=self.dst_backend_for_migration,
            config=self.config.migration,
            workload=self.workload_of(self.migrate_vm),
            tracer=self.world.tracer)
        return self.manager

    def start_supervised_migration_at(self, t: float, policy=None,
                                      trigger=None, health=None):
        """Dispatch the migration at simulation time ``t`` through a
        :class:`~repro.faults.MigrationSupervisor`: aborted attempts are
        retried with backoff (``policy``), and fault events (if the
        world has an injector attached) are routed to the in-flight
        manager. The final attempt's report lands on :attr:`final`. Pass
        a :class:`~repro.sched.HostHealthTracker` as ``health`` to park
        retries until the destination is back UP instead of blind
        backoff.
        """
        self.supervisor = MigrationSupervisor(self.world, policy=policy,
                                              trigger=trigger, health=health)

        def go() -> None:
            self.final = self.supervisor.dispatch(self.manager_factory)

        self.world.sim.call_at(t, go)
        return self.supervisor

    def run_until_migrated(self, start: float, limit: float,
                           settle: float = 0.0) -> None:
        """Run: warmup → migration at ``start`` → completion (+settle)."""
        self.start_migration_at(start)
        self.world.run(until=start)
        if self.manager is None:  # pragma: no cover - defensive
            raise RuntimeError("migration failed to launch")
        self.world.sim.run_until_event(self.manager.done, limit=limit)
        if settle > 0:
            self.world.run(until=self.world.sim.now + settle)

    @property
    def report(self):
        if self.manager is None:
            raise RuntimeError("migration not started")
        return self.manager.report


def _attach_backends(world: World, technique: Technique,
                     cfg: TestbedConfig, n_vms: int):
    """Swap backends per technique: a shared SSD per host for the
    baselines, one portable VMD namespace per VM for Agile and
    scatter-gather."""
    if technique in ("agile", "scatter-gather"):
        servers = [(f"vmdsrv{k}", cfg.vmd_server_bytes / cfg.vmd_servers)
                   for k in range(cfg.vmd_servers)]
        vmd = world.add_vmd(servers, placement_chunk_bytes=16 * MiB)
        backends = [vmd.create_namespace(f"vm{i}",
                                         replication=cfg.vmd_replication)
                    for i in range(n_vms)]
        dst_backend = None  # the namespace travels with each VM
    else:
        src_ssd = world.add_ssd(
            "ssd.src", read_bps=cfg.ssd_read_bps,
            write_bps=cfg.ssd_write_bps,
            mixed_efficiency=cfg.ssd_mixed_efficiency,
            capacity_bytes=cfg.ssd_capacity_bytes)
        dst_ssd = world.add_ssd(
            "ssd.dst", read_bps=cfg.ssd_read_bps,
            write_bps=cfg.ssd_write_bps,
            mixed_efficiency=cfg.ssd_mixed_efficiency,
            capacity_bytes=cfg.ssd_capacity_bytes)
        backends = [src_ssd] * n_vms
        dst_backend = dst_ssd
    return backends, dst_backend


def make_single_vm_lab(technique: Technique, vm_memory_bytes: float,
                       busy: bool,
                       host_memory_bytes: float = 6 * GiB,
                       dst_memory_bytes: Optional[float] = None,
                       reservation_bytes: Optional[float] = None,
                       busy_margin_bytes: float = 500 * MiB,
                       config: Optional[TestbedConfig] = None,
                       tracer=None,
                       ) -> MigrationLab:
    """§V-B: one VM on a small host; idle or running a busy Redis server.

    The busy VM's Redis dataset is ``vm_memory − 500 MB`` (the paper's
    setup), queried in full by an external YCSB client. The cgroup
    reservation defaults to what the host can hold (~5.5 GB on the 6 GB
    host).
    """
    cfg = config or TestbedConfig()
    world = World(dt=cfg.dt, seed=cfg.seed,
                  net_bandwidth_bps=cfg.net_bandwidth_bps,
                  net_latency_s=cfg.net_latency_s, tracer=tracer)
    world.add_host("src", host_memory_bytes, host_os_bytes=cfg.host_os_bytes)
    world.add_host("dst", dst_memory_bytes or host_memory_bytes,
                   host_os_bytes=cfg.host_os_bytes)
    world.add_client_host()

    backends, dst_backend = _attach_backends(world, technique, cfg, 1)
    vm = world.add_vm("vm0", vm_memory_bytes, "src", vcpus=2,
                      page_size=cfg.page_size)
    if reservation_bytes is None:
        usable = host_memory_bytes - cfg.host_os_bytes - 300 * MiB
        reservation_bytes = min(vm_memory_bytes, usable)
    world.hosts["src"].place_vm(vm, reservation_bytes, backends[0])

    if busy:
        dataset = max(cfg.page_size, vm_memory_bytes - busy_margin_bytes)
        preload_dataset(vm, world.manager_of("src"), dataset,
                        cold_tail_bytes=vm_memory_bytes - dataset)
        params = scale_params_to_page(ycsb_redis_params(), cfg.page_size)
        wl = KeyValueWorkload(
            vm, world.network, "client", world.manager_of, world.recorder,
            world.rng("wl.vm0"), dataset_bytes=dataset, params=params,
            cpu_of=world.cpu_of, sim_now=lambda: world.sim.now)
    else:
        # Idle VM: fully allocated memory, nothing touching it.
        preload_dataset(vm, world.manager_of("src"), vm_memory_bytes)
        wl = IdleWorkload(vm, world.recorder, sim_now=lambda: world.sim.now)
    world.add_workload(wl)

    return MigrationLab(world=world, engine=ENGINES[technique], config=cfg,
                        vms=[vm], workloads=[wl], migrate_vm=vm,
                        dst_backend_for_migration=dst_backend)


def make_pressure_scenario(technique: Technique,
                           workload_kind: Literal["kv", "oltp"] = "kv",
                           n_vms: int = 4,
                           vm_memory_bytes: float = 10 * GiB,
                           host_memory_bytes: float = 23 * GiB,
                           reservation_bytes: float = 6 * GiB,
                           kv_dataset_bytes: float = 9 * GiB,
                           oltp_dataset_bytes: float = 8 * GiB,
                           config: Optional[TestbedConfig] = None,
                           tracer=None,
                           ) -> MigrationLab:
    """§V-A / §V-C: n VMs under memory pressure at the source; one is
    migrated to relieve it.

    KV mode installs the paper's load ramp (200 MB → 6 GB starting at
    150 s, staggered 50 s); OLTP mode queries the whole dataset from the
    start.

    Reservations default to the *working set size* (6 GB), following
    §V-A: "we manually adjust the VMs' memory reservation to reflect its
    working set size". The memory pressure is then host-level — four
    6 GB working sets (plus the host OS) exceed 23 GB, and after one VM
    leaves, the remaining three fit, which is what lets performance
    recover (Figures 4-6).
    """
    cfg = config or TestbedConfig()
    world = World(dt=cfg.dt, seed=cfg.seed,
                  net_bandwidth_bps=cfg.net_bandwidth_bps,
                  net_latency_s=cfg.net_latency_s, tracer=tracer)
    world.add_host("src", host_memory_bytes, host_os_bytes=cfg.host_os_bytes)
    world.add_host("dst", host_memory_bytes, host_os_bytes=cfg.host_os_bytes)
    world.add_client_host()

    backends, dst_backend = _attach_backends(world, technique, cfg, n_vms)

    vms, workloads = [], []
    for i in range(n_vms):
        vm = world.add_vm(f"vm{i}", vm_memory_bytes, "src", vcpus=2,
                          page_size=cfg.page_size)
        world.hosts["src"].place_vm(vm, reservation_bytes, backends[i])
        if workload_kind == "kv":
            preload_dataset(vm, world.manager_of("src"), kv_dataset_bytes,
                            cold_tail_bytes=vm_memory_bytes
                            - kv_dataset_bytes)
            params = scale_params_to_page(ycsb_redis_params(), cfg.page_size)
            wl = KeyValueWorkload(
                vm, world.network, "client", world.manager_of,
                world.recorder, world.rng(f"wl.vm{i}"),
                dataset_bytes=kv_dataset_bytes,
                query_plan=KeyValueWorkload.paper_ramp_plan(i),
                params=params, cpu_of=world.cpu_of,
                sim_now=lambda: world.sim.now)
        else:
            preload_dataset(vm, world.manager_of("src"), oltp_dataset_bytes,
                            cold_tail_bytes=vm_memory_bytes
                            - oltp_dataset_bytes)
            params = scale_params_to_page(sysbench_mysql_params(),
                                          cfg.page_size)
            wl = OLTPWorkload(
                vm, world.network, "client", world.manager_of,
                world.recorder, world.rng(f"wl.vm{i}"),
                dataset_bytes=oltp_dataset_bytes, params=params,
                cpu_of=world.cpu_of, sim_now=lambda: world.sim.now)
        world.add_workload(wl)
        vms.append(vm)
        workloads.append(wl)

    return MigrationLab(world=world, engine=ENGINES[technique], config=cfg,
                        vms=vms, workloads=workloads, migrate_vm=vms[0],
                        dst_backend_for_migration=dst_backend)

@dataclass
class WssLab:
    """§V-D scenario: one VM with dynamic working-set tracking."""

    world: World
    vm: VirtualMachine
    workload: KeyValueWorkload
    tracker: "object"  # WssTracker (typed loosely to avoid an import cycle)

    def run(self, until: float) -> None:
        self.world.run(until=until)


def make_wss_lab(vm_memory_bytes: float = 5 * GiB,
                 dataset_bytes: float = 1.5 * GiB,
                 host_memory_bytes: float = 128 * GiB,
                 initial_reservation_bytes: Optional[float] = None,
                 query_plan: Optional[list[tuple[float, float]]] = None,
                 config: Optional[TestbedConfig] = None,
                 tracker_config: Optional["object"] = None,
                 tracer=None) -> WssLab:
    """§V-D / Figures 9-10: transparent WSS tracking on a single host.

    A 5 GB VM holds a 1.5 GB Redis dataset queried by an external YCSB
    client; the tracker (α = 0.95, β = 1.03, τ = 4 KB/s) dynamically
    adjusts the cgroup reservation to hug the working set. A custom
    ``query_plan`` exercises re-convergence after the WSS changes.
    """
    from repro.core.wss import WssTracker, WssTrackerConfig

    cfg = config or TestbedConfig()
    world = World(dt=cfg.dt, seed=cfg.seed,
                  net_bandwidth_bps=cfg.net_bandwidth_bps,
                  net_latency_s=cfg.net_latency_s, tracer=tracer)
    world.add_host("h1", host_memory_bytes, host_os_bytes=cfg.host_os_bytes)
    world.add_client_host()
    ssd = world.add_ssd(
        "ssd.h1", read_bps=cfg.ssd_read_bps, write_bps=cfg.ssd_write_bps,
        mixed_efficiency=cfg.ssd_mixed_efficiency,
        capacity_bytes=cfg.ssd_capacity_bytes)
    vm = world.add_vm("vm0", vm_memory_bytes, "h1", vcpus=2,
                      page_size=cfg.page_size)
    if initial_reservation_bytes is None:
        initial_reservation_bytes = vm_memory_bytes  # the paper's 5 GB
    world.hosts["h1"].place_vm(vm, initial_reservation_bytes, ssd)
    preload_dataset(vm, world.manager_of("h1"), dataset_bytes)
    params = scale_params_to_page(ycsb_redis_params(), cfg.page_size)
    wl = KeyValueWorkload(
        vm, world.network, "client", world.manager_of, world.recorder,
        world.rng("wl.vm0"), dataset_bytes=dataset_bytes,
        query_plan=query_plan, params=params, cpu_of=world.cpu_of,
        sim_now=lambda: world.sim.now)
    world.add_workload(wl)
    tracker = WssTracker(
        world.sim, "vm0", lambda: world.manager_of(vm.host), world.recorder,
        config=tracker_config or WssTrackerConfig(),
        max_reservation_bytes=vm_memory_bytes, tracer=world.tracer)
    return WssLab(world=world, vm=vm, workload=wl, tracker=tracker)
