"""Tests for the host memory manager (residency, eviction, writeback)."""

import random

import numpy as np
import pytest

from repro.mem import Cgroup, HostMemoryManager, SSDSwapDevice
from repro.mem.pages import lru_tie_rank
from repro.net import Network
from repro.host import Host
from repro.vm import VirtualMachine

PAGE = 4096
MiB = 2 ** 20


def make_host(mem_mib=10, os_mib=1):
    net = Network()
    return Host("h", mem_mib * MiB, net, host_os_bytes=os_mib * MiB)


def make_vm(name="vm1", pages=100):
    return VirtualMachine(name, pages * PAGE, host="h")


def place(host, vm, reservation_pages, dev=None):
    dev = dev or SSDSwapDevice("ssd")
    return host.place_vm(vm, reservation_pages * PAGE, dev), dev


def test_register_and_query():
    host = make_host()
    vm = make_vm()
    binding, _ = place(host, vm, 50)
    assert host.memory.has_vm("vm1")
    assert binding.cgroup.reservation_bytes == 50 * PAGE
    assert host.memory.free_bytes() == host.memory.usable_bytes()


def test_duplicate_registration_rejected():
    host = make_host()
    vm = make_vm()
    place(host, vm, 50)
    with pytest.raises(ValueError):
        host.place_vm(vm, 10 * PAGE, SSDSwapDevice("ssd2"))


def test_fault_in_fresh_pages_costs_no_io():
    host = make_host()
    vm = make_vm()
    binding, _ = place(host, vm, 50)
    read = host.memory.fault_in("vm1", np.arange(10))
    assert read == 0.0
    assert vm.pages.resident_pages() == 10
    assert binding.cgroup.swap_in_bytes_total == 0.0


def test_fault_in_swapped_pages_costs_reads():
    host = make_host()
    vm = make_vm()
    binding, _ = place(host, vm, 50)
    host.memory.fault_in("vm1", np.arange(10))
    vm.pages.swap_out(np.arange(5))
    read = host.memory.fault_in("vm1", np.arange(5))
    assert read == 5 * PAGE
    assert binding.cgroup.swap_in_bytes_total == 5 * PAGE


def test_cgroup_cap_triggers_lru_eviction():
    host = make_host()
    vm = make_vm()
    binding, _ = place(host, vm, 10)
    host.memory.fault_in("vm1", np.arange(8))
    host.memory.tick = 5
    host.memory.fault_in("vm1", np.arange(8, 16))  # 16 resident > 10 cap
    assert vm.pages.resident_pages() == 10
    # the evicted pages are the oldest: six of the eight tick-0 pages,
    # chosen by the seeded tie rank; every tick-5 page stays resident
    evicted = np.flatnonzero(~vm.pages.present[:16])
    assert evicted.size == 6 and np.all(evicted < 8)
    assert np.all(vm.pages.present[8:16])
    rank = lru_tie_rank(vm.pages.n_pages)
    assert set(evicted.tolist()) == set(np.argsort(rank[:8])[:6].tolist())
    assert np.all(vm.pages.swapped[evicted])


def test_eviction_of_fresh_pages_queues_writeback():
    host = make_host()
    vm = make_vm()
    binding, _ = place(host, vm, 10)
    host.memory.fault_in("vm1", np.arange(15))
    assert binding.writeback_backlog == 5 * PAGE
    assert binding.cgroup.swap_out_bytes_total == 5 * PAGE


def test_eviction_of_swap_clean_pages_is_free():
    host = make_host()
    vm = make_vm()
    binding, _ = place(host, vm, 10)
    host.memory.fault_in("vm1", np.arange(10))
    vm.pages.swap_out(np.arange(10))  # now all have valid swap copies
    binding.writeback_backlog = 0.0
    host.memory.fault_in("vm1", np.arange(10))  # swap back in (clean)
    host.memory.tick = 1
    host.memory.fault_in("vm1", np.arange(10, 15))  # forces eviction of 5
    assert binding.writeback_backlog == 0.0  # clean pages, no writeback
    assert vm.pages.resident_pages() == 10


def test_dirty_pages_need_writeback_on_reeviction():
    host = make_host()
    vm = make_vm()
    binding, _ = place(host, vm, 10)
    host.memory.fault_in("vm1", np.arange(10))
    vm.pages.swap_out(np.arange(10))
    host.memory.fault_in("vm1", np.arange(10))
    binding.writeback_backlog = 0.0
    host.memory.dirty("vm1", np.arange(10))  # invalidates swap copies
    host.memory.tick = 1
    host.memory.fault_in("vm1", np.arange(10, 12))
    assert binding.writeback_backlog == 2 * PAGE


def test_protect_mask_prevents_eviction():
    host = make_host()
    vm = make_vm()
    binding, _ = place(host, vm, 10)
    host.memory.fault_in("vm1", np.arange(10))
    protect = np.zeros(vm.n_pages, dtype=bool)
    protect[:10] = True
    binding.protect = protect
    host.memory.tick = 1
    host.memory.fault_in("vm1", np.arange(10, 15))
    # protected pages stay; the newly faulted ones are the only candidates
    assert np.all(vm.pages.present[:10])


def test_host_capacity_enforced_across_vms():
    # host: 10 MiB - 1 MiB OS = 9 MiB usable = 2304 pages
    host = make_host(mem_mib=10, os_mib=1)
    dev = SSDSwapDevice("ssd")
    vm1 = make_vm("vm1", pages=2000)
    vm2 = make_vm("vm2", pages=2000)
    host.place_vm(vm1, 2000 * PAGE, dev)
    host.place_vm(vm2, 2000 * PAGE, dev)  # reservations exceed host RAM
    host.memory.fault_in("vm1", np.arange(2000))
    host.memory.fault_in("vm2", np.arange(2000))
    total = host.memory.total_resident_bytes()
    assert total <= host.memory.usable_bytes() + PAGE


def test_writeback_drains_via_tick_protocol():
    host = make_host()
    vm = make_vm()
    dev = SSDSwapDevice("ssd", write_bps=4 * PAGE)  # 4 pages/s
    binding, _ = place(host, vm, 10, dev=dev)
    host.memory.fault_in("vm1", np.arange(18))  # evicts 8 fresh pages
    assert binding.writeback_backlog == 8 * PAGE
    host.memory.pre_tick(1.0)
    dev.arbitrate(1.0)
    host.memory.commit_tick(1.0)
    assert binding.writeback_backlog == 4 * PAGE


def test_free_vm_memory_keeps_swap_state():
    host = make_host()
    vm = make_vm()
    place(host, vm, 10)
    host.memory.fault_in("vm1", np.arange(15))  # 5 evicted to swap
    host.memory.free_vm_memory("vm1")
    assert vm.pages.resident_pages() == 0
    assert vm.pages.swapped_pages() == 5  # per-VM swap survives (§IV-B)


def test_unregister_closes_queues():
    host = make_host()
    vm = make_vm()
    binding, _ = place(host, vm, 10)
    host.release_vm("vm1")
    assert not host.memory.has_vm("vm1")
    assert not binding.fault_queue.active
    assert not binding.write_queue.active


def test_shrink_to_reservation():
    host = make_host()
    vm = make_vm()
    binding, _ = place(host, vm, 50)
    host.memory.fault_in("vm1", np.arange(40))
    binding.cgroup.set_reservation(20 * PAGE)
    evicted = host.memory.shrink_to_reservation("vm1")
    assert evicted == 20
    assert vm.pages.resident_pages() == 20


def test_invalid_host_memory_config():
    net = Network()
    with pytest.raises(ValueError):
        Host("h", 100 * MiB, net, host_os_bytes=200 * MiB)




# -- commit-phase accounting -------------------------------------------------

def test_closed_queue_grant_is_reset():
    """close() must clear ``granted``: a consumer reading a just-closed
    queue in the same commit phase must not re-consume last tick's
    grant."""
    dev = SSDSwapDevice("ssd", write_bps=100 * PAGE * 10)
    q = dev.open_queue("w", "write")
    q.demand = 10 * PAGE
    dev.arbitrate(0.1)
    assert q.granted > 0.0
    q.close()
    assert q.granted == 0.0
    assert q.demand == 0.0


def test_grant_skips_inactive_queues():
    """A lane closed between compaction and granting gets nothing, and
    the survivors' grants match what they would get alone."""
    live = SSDSwapDevice("ssd").open_queue("live", "write")
    dead = SSDSwapDevice("ssd").open_queue("dead", "write")
    live.demand = 30.0
    dead.close()
    dead.granted = 123.0  # simulate a stale grant left by an old bug
    SSDSwapDevice._grant([live, dead], capacity=100.0)
    assert live.granted == 30.0
    assert dead.granted == 123.0 and dead.demand == 0.0  # untouched
    # and the compaction flag removes it from later rounds entirely
    dev = SSDSwapDevice("ssd")
    q1 = dev.open_queue("a", "write")
    q2 = dev.open_queue("b", "write")
    q1.demand = 10.0
    q2.close()
    dev.arbitrate(1.0)
    assert q2 not in dev._queues


def test_departed_vm_leaves_no_write_demand():
    """free_vm_memory + unregister must cancel writeback debt: after a
    VM departs, the device sees zero write demand from it."""
    dev = SSDSwapDevice("ssd", write_bps=PAGE)  # drains ~nothing
    mgr = HostMemoryManager("h", 10 * MiB, host_os_bytes=1 * MiB)
    vm = VirtualMachine("vm1", 100 * PAGE, host="h")
    b = mgr.register_vm(vm, Cgroup("vm1", 10 * PAGE), dev)
    mgr.fault_in("vm1", np.arange(20))  # evicts 10 fresh pages
    assert b.writeback_backlog == 10 * PAGE
    mgr.free_vm_memory("vm1")
    assert b.writeback_backlog == 0.0
    mgr.pre_tick(0.1)
    assert b.write_queue.demand == 0.0
    # full departure: debt must not survive the binding either
    mgr.fault_in("vm1", np.arange(20, 40))
    assert b.writeback_backlog > 0.0
    mgr.unregister_vm("vm1")
    assert b.writeback_backlog == 0.0
    assert b.write_queue.demand == 0.0
    dev.arbitrate(0.1)
    assert b.write_queue.granted == 0.0


def test_pre_tick_demand_reset_is_unconditional():
    """Demand declared by a previous pre-tick must be overwritten by the
    next one even when no arbiter ever consumed it (the backing VMD
    server vanished mid-run) and the debt has since been forgiven."""
    dev = SSDSwapDevice("ssd")
    mgr = HostMemoryManager("h", 10 * MiB, host_os_bytes=1 * MiB)
    vm = VirtualMachine("vm1", 100 * PAGE, host="h")
    b = mgr.register_vm(vm, Cgroup("vm1", 50 * PAGE), dev)
    b.writeback_backlog = 4 * PAGE
    mgr.pre_tick(0.1)
    assert b.write_queue.demand == 4 * PAGE
    # the arbiter never runs (server lost) — the demand sits there;
    # an engine then forgives the debt (e.g. migration teardown)
    b.writeback_backlog = 0.0
    mgr.pre_tick(0.1)
    assert b.write_queue.demand == 0.0


def test_cgroup_shrink_changes_host_victim():
    """A reservation lowered between ticks (without an immediate shrink)
    is what the next host-pressure eviction sees: the VM now most over
    its reservation is the victim, not the largest one."""
    dev = SSDSwapDevice("ssd")
    mgr = HostMemoryManager("h", 4 * MiB, host_os_bytes=1 * MiB)  # 768 pg
    vms = {}
    for name in ("a", "b"):
        vms[name] = VirtualMachine(name, 800 * PAGE, host="h")
        mgr.register_vm(vms[name], Cgroup(name, 600 * PAGE), dev)
    mgr.fault_in("a", np.arange(400))
    mgr.fault_in("b", np.arange(300))
    mgr.binding("b").cgroup.set_reservation(50 * PAGE)
    mgr.fault_in("a", np.arange(400, 500))  # 800 pages > 768 usable
    assert vms["a"].pages.resident_pages() == 500
    assert vms["b"].pages.resident_pages() == 268


# -- randomized scenarios: accounting invariants after every tick ------------

SEEDS = [0, 1, 7, 42, 1234]


class CheckedHost:
    """One manager and its swap device, driven tick by tick through the
    pre-tick / arbitrate / commit protocol with the accounting
    invariants checked after every phase:

    * pre-tick declares each VM's whole backlog as write demand, and
      scales fault demand by ``cap / backlog`` only above the debt cap;
    * the commit drain never drives a backlog negative, and every byte
      evicted dirty is either still owed or was granted as a write
      (no debt is created or lost between ticks);
    * residency stays within each cgroup (unless pages are pinned) and
      within the host's usable memory; page-state arrays stay coherent.
    """

    def __init__(self, mem_mib, os_mib=1, write_bps=200e6, debt_cap=None):
        self.mgr = HostMemoryManager("h", mem_mib * MiB,
                                     host_os_bytes=os_mib * MiB)
        self.dev = SSDSwapDevice("ssd", read_bps=400e6, write_bps=write_bps)
        if debt_cap is not None:
            self.mgr.writeback_debt_cap = debt_cap
        self.vms = {}

    def register(self, name, n_pages, reservation_pages):
        vm = VirtualMachine(name, n_pages * PAGE, host="h")
        self.mgr.register_vm(vm, Cgroup(name, reservation_pages * PAGE),
                             self.dev)
        self.vms[name] = vm

    def unregister(self, name):
        self.mgr.unregister_vm(name)
        del self.vms[name]

    def fault_in(self, name, idx):
        self.mgr.fault_in(name, idx)

    def dirty(self, name, idx):
        # guests can only write resident pages
        self.mgr.dirty(name, idx[self.vms[name].pages.present[idx]])

    def shrink(self, name, reservation_pages):
        self.mgr.binding(name).cgroup.set_reservation(
            reservation_pages * PAGE)
        self.mgr.shrink_to_reservation(name)

    def tick(self, dt=0.1):
        mgr = self.mgr
        bindings = [mgr.binding(name) for name in self.vms]
        before = [(b.writeback_backlog, b.fault_queue.demand)
                  for b in bindings]
        mgr.pre_tick(dt)
        cap = mgr.writeback_debt_cap
        for b, (backlog, fault_demand) in zip(bindings, before):
            assert b.write_queue.demand == backlog
            if backlog > cap and fault_demand > 0:
                assert b.fault_queue.demand == fault_demand * (cap / backlog)
            else:
                assert b.fault_queue.demand == fault_demand
        self.dev.arbitrate(dt)
        mgr.commit_tick(dt)
        mgr.tick += 1  # the LRU clock of a manager driven by hand
        for b, (backlog, _) in zip(bindings, before):
            assert 0.0 <= b.writeback_backlog <= backlog
            assert b.cgroup.swap_out_bytes_total == pytest.approx(
                b.writeback_backlog + b.write_queue.total_granted,
                rel=1e-12, abs=1e-6)
        self.assert_residency()

    def assert_residency(self):
        mgr = self.mgr
        assert mgr.total_resident_bytes() <= mgr.usable_bytes()
        for name, vm in self.vms.items():
            b = mgr.binding(name)
            if b.protect is None:
                assert (vm.pages.resident_bytes()
                        <= b.cgroup.reservation_bytes)
            vm.pages.check_invariants()


def _random_idx(rng, n_pages):
    lo = rng.randrange(n_pages)
    hi = min(n_pages, lo + rng.randrange(1, max(2, n_pages // 4)))
    return np.arange(lo, hi)


@pytest.mark.parametrize("seed", SEEDS)
def test_random_churn_invariants(seed):
    """Random fault/dirty/shrink churn under host memory pressure.

    Reservations sum past the host's usable memory, so cgroup eviction
    and host-pressure victim selection both fire; the slow write device
    keeps writeback backlogs alive across many drain ticks.
    """
    rng = random.Random(seed)
    host = CheckedHost(mem_mib=4, write_bps=64 * PAGE * 10)
    for i in range(4):
        host.register(f"vm{i}", n_pages=400, reservation_pages=300)
    for step in range(200):
        for name in list(host.vms):
            if rng.random() < 0.6:
                host.fault_in(name, _random_idx(rng, 400))
            if rng.random() < 0.3:
                host.dirty(name, _random_idx(rng, 400))
        if rng.random() < 0.1:
            host.shrink(rng.choice(list(host.vms)), rng.randrange(50, 300))
        if rng.random() < 0.15:
            name = rng.choice(list(host.vms))
            host.mgr.binding(name).fault_queue.demand = rng.uniform(
                0.0, 64 * PAGE)
        host.tick(dt=rng.choice([0.05, 0.1, 0.25]))


@pytest.mark.parametrize("seed", SEEDS)
def test_writeback_debt_throttle_invariants(seed):
    """A tiny debt cap forces the fault-throttle path every tick."""
    rng = random.Random(seed)
    host = CheckedHost(mem_mib=4, write_bps=8 * PAGE * 10,
                       debt_cap=4 * PAGE)
    host.register("vm0", n_pages=300, reservation_pages=60)
    host.register("vm1", n_pages=300, reservation_pages=60)
    throttled = 0
    for step in range(150):
        for name in list(host.vms):
            host.fault_in(name, _random_idx(rng, 300))
            host.dirty(name, _random_idx(rng, 300))
            host.mgr.binding(name).fault_queue.demand = rng.uniform(
                PAGE, 32 * PAGE)
        throttled += sum(host.mgr.binding(name).writeback_backlog
                         > 4 * PAGE for name in host.vms)
        host.tick(dt=0.1)
    assert throttled > 0


@pytest.mark.parametrize("seed", SEEDS)
def test_host_pressure_pinned_invariants(seed):
    """Host-pressure eviction with rotating protect masks: pinned pages
    are never evicted and the host still fits in its usable memory."""
    rng = random.Random(seed)
    # reservations alone exceed usable memory: every fault storm runs
    # the host-pressure loop, not just the cgroup cap
    host = CheckedHost(mem_mib=3, write_bps=128 * PAGE * 10)
    for i in range(3):
        host.register(f"vm{i}", n_pages=400, reservation_pages=400)
    masks = {}
    for step in range(150):
        for name in list(host.vms):
            if rng.random() < 0.7:
                pinned = masks.get(name)
                was = (None if pinned is None
                       else host.vms[name].pages.present[pinned].copy())
                host.fault_in(name, _random_idx(rng, 400))
                if pinned is not None:
                    still = host.vms[name].pages.present[pinned]
                    assert np.all(still[was])
        if rng.random() < 0.2:
            name = rng.choice(list(host.vms))
            if rng.random() < 0.5 or name not in masks:
                mask = np.zeros(400, dtype=bool)
                lo = rng.randrange(300)
                mask[lo:lo + rng.randrange(20, 100)] = True
                masks[name] = mask
                host.mgr.binding(name).protect = mask.copy()
            else:
                del masks[name]
                host.mgr.binding(name).protect = None
        host.tick(dt=0.1)


@pytest.mark.parametrize("seed", SEEDS)
def test_register_unregister_churn_invariants(seed):
    """Mid-run VM arrivals and departures (plain, or after a migration
    source teardown) leave no debt or demand behind."""
    rng = random.Random(seed)
    host = CheckedHost(mem_mib=6, write_bps=64 * PAGE * 10)
    next_id = 0
    for i in range(3):
        host.register(f"vm{next_id}", n_pages=300,
                      reservation_pages=rng.randrange(80, 250))
        next_id += 1
    for step in range(200):
        for name in list(host.vms):
            if rng.random() < 0.5:
                host.fault_in(name, _random_idx(rng, 300))
            if rng.random() < 0.2:
                host.dirty(name, _random_idx(rng, 300))
        roll = rng.random()
        if roll < 0.08 and len(host.vms) > 1:
            name = rng.choice(list(host.vms))
            b = host.mgr.binding(name)
            if rng.random() < 0.5:
                host.mgr.free_vm_memory(name)  # migration source teardown
                assert host.vms[name].pages.resident_pages() == 0
            host.unregister(name)
            assert b.writeback_backlog == 0.0
            assert b.write_queue.demand == 0.0
        elif roll < 0.16 and len(host.vms) < 8:
            host.register(f"vm{next_id}", n_pages=300,
                          reservation_pages=rng.randrange(80, 250))
            next_id += 1
        host.tick(dt=0.1)
