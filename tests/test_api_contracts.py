"""Small API-contract tests across modules (error paths, accessors)."""

import importlib
import pkgutil

import numpy as np
import pytest

import repro
from repro.cluster import World
from repro.host import Host
from repro.mem import SSDSwapDevice
from repro.net import Network
from repro.util import GiB, KiB, MiB, PAGE_SIZE
from repro.vm import VirtualMachine
from repro.workloads import PhasePlan


def test_every_exported_name_resolves():
    """Each name a ``repro`` module lists in ``__all__`` exists on it (a
    stale export, e.g. a deleted class still listed, fails here)."""
    stale = []
    for info in pkgutil.walk_packages(repro.__path__, "repro."):
        mod = importlib.import_module(info.name)
        stale += [f"{info.name}.{name}"
                  for name in getattr(mod, "__all__", ())
                  if not hasattr(mod, name)]
    assert stale == []


def test_constants():
    assert KiB == 1024
    assert MiB == KiB ** 2
    assert GiB == KiB ** 3
    assert PAGE_SIZE == 4096


def test_phase_plan_constant():
    plan = PhasePlan.constant(5, 50)
    assert plan.region_at(0.0) == (5, 50)
    assert plan.region_at(1e9) == (5, 50)


def test_phase_plan_before_first_phase_uses_first():
    plan = PhasePlan([(10.0, 0, 5)])
    assert plan.region_at(0.0) == (0, 5)


def test_host_remove_unknown_vm():
    net = Network()
    host = Host("h", 64 * MiB, net, host_os_bytes=1 * MiB)
    with pytest.raises(KeyError):
        host.remove_vm("ghost")


def test_world_double_vmd_rejected():
    w = World()
    w.add_vmd([("i0", 1 * GiB)])
    with pytest.raises(RuntimeError):
        w.add_vmd([("i1", 1 * GiB)])


def test_world_vmd_reuses_existing_network_host():
    w = World()
    w.network.add_host("i0")
    vmd = w.add_vmd([("i0", 1 * GiB)])
    assert vmd.total_free_bytes() == 1 * GiB
    assert vmd.total_used_bytes() == 0.0


def test_world_cpu_of_accessor():
    w = World()
    w.add_host("h1", 64 * MiB, cpu_cores=6, host_os_bytes=1 * MiB)
    assert w.cpu_of("h1").cores == 6


def test_vm_repr_and_host_repr_do_not_crash():
    net = Network()
    host = Host("h", 64 * MiB, net, host_os_bytes=1 * MiB)
    vm = VirtualMachine("v", 4 * MiB, host="h")
    assert "v" in repr(vm)
    assert "h" in repr(host)


def test_place_vm_duplicate_rejected():
    net = Network()
    host = Host("h", 64 * MiB, net, host_os_bytes=1 * MiB)
    vm = VirtualMachine("v", 4 * MiB, host="h")
    dev = SSDSwapDevice("ssd")
    host.place_vm(vm, 4 * MiB, dev)
    with pytest.raises(ValueError):
        host.place_vm(vm, 4 * MiB, dev)
    with pytest.raises(ValueError):
        host.place_vm_with_cgroup(vm, None, dev)


def test_memory_manager_free_bytes_tracks_residency():
    net = Network()
    host = Host("h", 10 * MiB, net, host_os_bytes=2 * MiB)
    vm = VirtualMachine("v", 4 * MiB, host="h")
    host.place_vm(vm, 4 * MiB, SSDSwapDevice("ssd"))
    assert host.memory.free_bytes() == 8 * MiB
    host.memory.fault_in("v", np.arange(256))  # 1 MiB
    assert host.memory.free_bytes() == 7 * MiB


def test_vm_page_geometry_rounding():
    vm = VirtualMachine("v", 10 * 4096 + 100, page_size=4096)
    assert vm.n_pages == 10  # rounds to whole pages


def test_network_flows_listing():
    net = Network()
    net.add_host("a")
    net.add_host("b")
    f = net.open_flow("a", "b")
    assert f in net.flows
    f.close()
    net.arbitrate(1.0)
    assert f not in net.flows
