"""A physical host: memory manager, CPU capacity, NIC attachment.

The host object glues the substrates together for one machine: it owns
the :class:`~repro.mem.manager.HostMemoryManager`, knows its CPU core
count (the paper's hosts have twelve 2.1 GHz Xeons), and registers its
NIC with the network fabric. VM placement — creating a cgroup, binding a
swap backend, registering the VM's pages with the memory manager —
happens through :meth:`place_vm`, which is the moral equivalent of
starting a KVM/QEMU process inside a fresh cgroup (§IV-B).

``Host`` is the only writer of :attr:`Host.vms`, and every change to the
VMs it lists — placement, removal, a listed VM dying — bumps
:attr:`Host.version`, so views derived from the VM set (the fleet host
view) rebuild a host's row only when it changed.
"""

from __future__ import annotations

from typing import Optional

from repro.mem.cgroup import Cgroup
from repro.mem.cpu import CpuArbiter
from repro.mem.device import SwapBackend
from repro.mem.manager import HostMemoryManager, VmMemoryBinding
from repro.net.network import Network
from repro.vm.vm import VirtualMachine

__all__ = ["Host"]


class Host:
    """One physical machine in the cluster."""

    def __init__(self, name: str, memory_bytes: float, network: Network,
                 cpu_cores: int = 12, host_os_bytes: float = 200 * 2 ** 20,
                 nic_bandwidth_bps: Optional[float] = None):
        if cpu_cores <= 0:
            raise ValueError("cpu_cores must be positive")
        self.name = name
        self.memory_bytes = float(memory_bytes)
        self.cpu_cores = int(cpu_cores)
        self.network = network
        network.add_host(name, nic_bandwidth_bps)
        self.memory = HostMemoryManager(name, memory_bytes,
                                        host_os_bytes=host_os_bytes)
        self.cpu = CpuArbiter(name, cpu_cores)
        self.vms: dict[str, VirtualMachine] = {}
        #: bumped on every change to the listed VMs or their liveness
        self.version = 0

    # -- VM placement ---------------------------------------------------------
    def place_vm(self, vm: VirtualMachine, reservation_bytes: float,
                 swap_backend: SwapBackend) -> VmMemoryBinding:
        """Admit a VM: create its cgroup, bind its per-VM swap device, and
        register its memory with this host's memory manager."""
        return self.place_vm_with_cgroup(
            vm, Cgroup(f"cg.{vm.name}", reservation_bytes), swap_backend)

    def release_vm(self, vm_name: str) -> None:
        """Free and unbind whatever this host still holds of ``vm_name``
        (migration teardown, failure, departure); a no-op for a VM it
        never had."""
        if self.memory.has_vm(vm_name):
            self.memory.free_vm_memory(vm_name)
            self.memory.unregister_vm(vm_name)
        if self.vms.pop(vm_name, None) is not None:
            self.version += 1

    def terminate_vm(self, vm_name: str) -> None:
        """Kill a VM this host lists (crash, lost data, departure). It
        stays listed, dead, until it is removed."""
        self.vms[vm_name].terminate()
        self.version += 1

    def mark_changed(self) -> None:
        """Invalidate views of this host's VMs for a change they cannot
        see here (a listed VM's tenant label was assigned late)."""
        self.version += 1

    def place_vm_with_cgroup(self, vm: VirtualMachine, cgroup: Cgroup,
                             swap_backend: SwapBackend,
                             writeback_backlog: float = 0.0
                             ) -> VmMemoryBinding:
        if vm.name in self.vms:
            raise ValueError(f"VM already placed on {self.name}: {vm.name}")
        vm.host = self.name
        binding = self.memory.register_vm(vm, cgroup, swap_backend,
                                          writeback_backlog)
        self.vms[vm.name] = vm
        self.version += 1
        return binding

    def __repr__(self) -> str:  # pragma: no cover
        return (f"<Host {self.name} {self.memory_bytes/2**30:.0f}GiB "
                f"{len(self.vms)} VMs>")
