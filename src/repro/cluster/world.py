"""The World: a fully wired simulated cluster.

Tick ordering conventions (see :class:`repro.sim.TickEngine`):

* participants, order 0 — workloads and migration managers (declare
  demands / consume grants);
* participants, order 5 — host memory managers (writeback demand/drain);
* participants & arbiters, order 10 — VMD namespaces (translate queue
  demands to flows, then flow grants back to queues);
* arbiters, order 0 — the network, host CPUs and local SSD devices.

The network, workloads and migration managers run every tick. Memory
managers, CPU arbiters, SSDs and namespaces park while idle and are
woken by whatever gives them work (demand on one of their lanes, an
eviction that queues writeback, a repair backlog), so a mostly idle
fleet costs only its busy hosts per tick. The engine's ``tick_index``
counts every tick and is the memory managers' LRU clock.
"""

from __future__ import annotations

from typing import Optional

import numpy as np

from repro.host.host import Host
from repro.mem.device import SSDSwapDevice
from repro.mem.manager import HostMemoryManager
from repro.metrics.recorder import Recorder
from repro.net.network import Network
from repro.obs.tracer import NULL_TRACER, NullTracer
from repro.telemetry.instruments import NULL_METRICS, NullRegistry
from repro.sim.kernel import Simulator
from repro.sim.periodic import TickEngine
from repro.sim.rng import RngStreams
from repro.vm.vm import VirtualMachine
from repro.vmd.cluster import VMDCluster
from repro.vmd.server import VMDServer

__all__ = ["World", "MANAGER_ORDER", "WORKLOAD_ORDER"]

WORKLOAD_ORDER = 0
MANAGER_ORDER = 5


class World:
    """Owns and wires every simulation component for one experiment."""

    def __init__(self, dt: float = 0.1, seed: int = 0,
                 net_bandwidth_bps: float = 117e6,
                 net_latency_s: float = 2e-4,
                 tracer: Optional[NullTracer] = None,
                 metrics: Optional[NullRegistry] = None):
        self.sim = Simulator()
        #: observability sink (see :mod:`repro.obs`); the no-op default
        #: keeps every instrumentation site at one attribute check
        self.tracer = tracer if tracer is not None else NULL_TRACER
        self.tracer.bind_clock(lambda: self.sim.now)
        #: live-metrics sink (see :mod:`repro.telemetry`); same no-op
        #: default contract as the tracer
        self.metrics = metrics if metrics is not None else NULL_METRICS
        self.metrics.bind_clock(lambda: self.sim.now)
        self.engine = TickEngine(self.sim, dt=dt)
        self.network = Network(default_bandwidth_bps=net_bandwidth_bps,
                               latency_s=net_latency_s)
        self.network.metrics = self.metrics
        self.engine.add_arbiter(self.network, order=0)
        self.recorder = Recorder()
        self.rngs = RngStreams(seed)
        self.hosts: dict[str, Host] = {}
        self.vms: dict[str, VirtualMachine] = {}
        self.ssds: dict[str, SSDSwapDevice] = {}
        self.vmd: Optional[VMDCluster] = None
        self.faults = None  # set by attach_faults()
        self.topology = None  # set by use_topology()
        self._started = False
        self._usage_subs: list = []
        self._usage_task = None

    # -- topology -----------------------------------------------------------
    def use_topology(self, topology) -> None:
        """Adopt a :class:`~repro.sched.Topology` (racks + ToR uplinks).

        Call before adding hosts/flows: subsequently added hosts can be
        assigned to racks (``add_host(..., rack=...)``), inter-rack flows
        cross the rack uplinks, and rack-crash faults become valid.
        """
        if self.topology is not None:
            raise RuntimeError("topology already set")
        self.topology = topology
        self.network.set_topology(topology)

    def add_host(self, name: str, memory_bytes: float,
                 cpu_cores: int = 12,
                 host_os_bytes: float = 200 * 2 ** 20,
                 nic_bandwidth_bps: Optional[float] = None,
                 rack: Optional[str] = None) -> Host:
        host = Host(name, memory_bytes, self.network, cpu_cores=cpu_cores,
                    host_os_bytes=host_os_bytes,
                    nic_bandwidth_bps=nic_bandwidth_bps)
        self.hosts[name] = host
        host.memory.metrics = self.metrics
        if rack is not None:
            if self.topology is None:
                raise RuntimeError("use_topology() before rack assignment")
            self.topology.assign(name, rack)
        self.engine.add_participant(host.memory, order=MANAGER_ORDER)
        self.engine.add_arbiter(host.cpu, order=0)
        return host

    def add_client_host(self, name: str = "client") -> None:
        """An external host running benchmark clients (no memory model)."""
        self.network.add_host(name)

    def add_ssd(self, name: str, **kwargs) -> SSDSwapDevice:
        dev = SSDSwapDevice(name, **kwargs)
        self.ssds[name] = dev
        self.engine.add_arbiter(dev, order=0)
        return dev

    def add_vmd(self, servers: list[tuple[str, float]],
                placement_chunk_bytes: float = 256 * 2 ** 10) -> VMDCluster:
        """Create the VMD from ``(host_name, donated_bytes)`` descriptors.

        Intermediate hosts are attached to the network automatically; they
        donate memory but run no VMs, so no memory manager is created.
        """
        if self.vmd is not None:
            raise RuntimeError("VMD already created")
        objs = []
        for host_name, capacity in servers:
            if not self.network.has_host(host_name):
                self.network.add_host(host_name)
            objs.append(VMDServer(host_name, capacity))
        self.vmd = VMDCluster(self.network, self.engine, objs,
                              placement_chunk_bytes=placement_chunk_bytes,
                              tracer=self.tracer)
        return self.vmd

    def attach_faults(self, schedule, log=None):
        """Install a fault-injection engine driven by ``schedule``.

        Returns the :class:`~repro.faults.FaultInjector`; call before
        :meth:`run`. The injector is kept on :attr:`faults` so engines and
        supervisors can subscribe to fault events.
        """
        from repro.faults.injector import FaultInjector
        if self.faults is not None:
            raise RuntimeError("faults already attached")
        self.faults = FaultInjector(self, schedule, log=log)
        return self.faults

    # -- usage feed ----------------------------------------------------------
    def start_usage_feed(self, interval_s: float = 1.0) -> None:
        """Periodically sample every host's resident bytes, publish the
        ``mem.host.<name>.used_bytes`` gauges (when metrics are on) and
        notify subscribers.

        The planner's pressure forecast feeds from this. Idempotent: a
        second call (another control plane, a test) keeps the first
        task's cadence so the sample series — and everything downstream
        of it — stays deterministic.
        """
        if self._usage_task is not None:
            return
        from repro.sim.periodic import PeriodicTask
        self._usage_task = PeriodicTask(self.sim, interval_s,
                                        self._sample_usage)

    def subscribe_usage(self, fn) -> None:
        """Call ``fn(host_name, t, used_bytes)`` on every sample."""
        self._usage_subs.append(fn)

    def _sample_usage(self, now: float) -> None:
        publish = self.metrics.enabled
        for name in sorted(self.hosts):
            used = self.hosts[name].memory.total_resident_bytes()
            if publish:
                self.metrics.gauge(f"mem.host.{name}.used_bytes").set(used)
            for fn in self._usage_subs:
                fn(name, now, used)

    # -- helpers ---------------------------------------------------------------
    def manager_of(self, host_name: str) -> HostMemoryManager:
        return self.hosts[host_name].memory

    def cpu_of(self, host_name: str):
        return self.hosts[host_name].cpu

    def add_vm(self, name: str, memory_bytes: float, host: str,
               vcpus: int = 2, page_size: int = 4096) -> VirtualMachine:
        vm = VirtualMachine(name, memory_bytes, vcpus=vcpus, host=host,
                            page_size=page_size)
        self.vms[name] = vm
        return vm

    def terminate_vm(self, name: str) -> None:
        """Kill VM ``name`` where it stands (a crash, lost swap data).
        Every host listing it records the change — past a migration's
        switch that is both ends — and keeps it listed, dead, until it
        is removed."""
        holders = [h for h in self.hosts.values() if name in h.vms]
        for host in holders:
            host.terminate_vm(name)
        if not holders:
            self.vms[name].terminate()

    def add_workload(self, workload, order: int = WORKLOAD_ORDER):
        self.engine.add_participant(workload, order=order)
        return workload

    def rng(self, name: str) -> np.random.Generator:
        return self.rngs.get(name)

    @property
    def now(self) -> float:
        return self.sim.now

    # -- execution ----------------------------------------------------------
    def run(self, until: float) -> None:
        if not self._started:
            self.engine.start()
            self._started = True
        self.sim.run(until=until)
