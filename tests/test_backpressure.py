"""Tests for the swap-path rate controls added for fidelity:

* per-VM synchronous swap-in ceiling (``WorkloadParams.max_swapin_bps``);
* migration-thread swap-read ceiling (``MigrationConfig.max_swapin_bps``);
* writeback-debt fault throttling in the host memory manager;
* cold-tail preloading (allocated-but-idle guest pages).
"""

import numpy as np
import pytest

from repro.cluster import World, preload_dataset
from repro.cluster.scenarios import TestbedConfig, make_single_vm_lab
from repro.core.base import MigrationConfig
from repro.util import GiB, MiB
from repro.workloads import KeyValueWorkload, ycsb_redis_params

PAGE = 4096


def thrash_world(max_swapin_bps=None, seed=1):
    w = World(dt=0.5, seed=seed, net_bandwidth_bps=100e6)
    w.add_host("h1", 64 * MiB, host_os_bytes=4 * MiB)
    w.add_client_host()
    vm = w.add_vm("vm1", 48 * MiB, "h1")
    dev = w.add_ssd("ssd", read_bps=50e6, write_bps=30e6)
    w.hosts["h1"].place_vm(vm, 8 * MiB, dev)
    preload_dataset(vm, w.manager_of("h1"), 32 * MiB)
    params = ycsb_redis_params(max_swapin_bps=max_swapin_bps, readahead=1.0)
    wl = KeyValueWorkload(vm, w.network, "client", w.manager_of, w.recorder,
                          w.rng("wl"), dataset_bytes=32 * MiB, params=params,
                          sim_now=lambda: w.sim.now)
    w.add_workload(wl)
    return w, vm, wl


def test_swapin_ceiling_caps_fault_rate():
    w_uncapped, _, _ = thrash_world(max_swapin_bps=None)
    w_uncapped.run(until=30.0)
    uncapped = (w_uncapped.manager_of("h1").binding("vm1")
                .cgroup.swap_in_bytes_total / 30.0)
    w_capped, _, _ = thrash_world(max_swapin_bps=1e6)
    w_capped.run(until=30.0)
    capped = (w_capped.manager_of("h1").binding("vm1")
              .cgroup.swap_in_bytes_total / 30.0)
    assert capped <= 1.1e6
    assert uncapped > 3 * capped


def test_writeback_debt_throttles_faults():
    w, vm, wl = thrash_world()
    mm = w.manager_of("h1")
    mm.writeback_debt_cap = 1 * MiB
    binding = mm.binding("vm1")
    binding.writeback_backlog = 10 * MiB  # simulated reclaim storm
    binding.fault_queue.demand = 8 * MiB
    mm.pre_tick(0.5)
    # demand scaled by cap/backlog = 1/10
    assert binding.fault_queue.demand == pytest.approx(0.8 * MiB)


def test_no_throttle_below_debt_cap():
    w, vm, wl = thrash_world()
    mm = w.manager_of("h1")
    binding = mm.binding("vm1")
    binding.writeback_backlog = 1 * MiB  # below the 64 MiB default cap
    binding.fault_queue.demand = 8 * MiB
    mm.pre_tick(0.5)
    assert binding.fault_queue.demand == pytest.approx(8 * MiB)


def test_migration_swapin_cap_slows_swapped_transfer():
    def run(cap):
        cfg = TestbedConfig(
            dt=0.1, seed=0, page_size=PAGE, net_bandwidth_bps=50e6,
            ssd_read_bps=50e6, ssd_write_bps=30e6,
            ssd_capacity_bytes=1 * GiB, vmd_server_bytes=1 * GiB,
            host_os_bytes=1 * MiB,
            migration=MigrationConfig(backlog_cap_bytes=8 * MiB,
                                      max_swapin_bps=cap))
        lab = make_single_vm_lab("pre-copy", 64 * MiB, busy=False,
                                 host_memory_bytes=64 * MiB,
                                 reservation_bytes=16 * MiB, config=cfg)
        lab.run_until_migrated(start=2.0, limit=600.0)
        return lab.report.total_time

    slow = run(2e6)     # 48 MiB of swapped pages at 2 MB/s
    fast = run(None)    # device-limited instead
    assert slow > 2 * fast


def test_cold_tail_preload_allocates_swapped_pages():
    w = World(dt=0.5, seed=0)
    w.add_host("h1", 64 * MiB, host_os_bytes=4 * MiB)
    vm = w.add_vm("vm1", 48 * MiB, "h1")
    dev = w.add_ssd("ssd")
    w.hosts["h1"].place_vm(vm, 16 * MiB, dev)
    preload_dataset(vm, w.manager_of("h1"), 24 * MiB,
                    cold_tail_bytes=16 * MiB)
    pages = vm.pages
    n_data = 24 * MiB // PAGE
    n_cold = 16 * MiB // PAGE
    # dataset: reservation-worth resident at its end, head swapped
    assert pages.resident_bytes() == 16 * MiB
    assert np.all(pages.swapped[n_data:n_data + n_cold])
    assert pages.allocated_pages() == n_data + n_cold
    # swap space accounted for everything swapped
    assert dev.used_bytes == pages.swapped_bytes()


def test_cold_tail_must_fit():
    w = World(dt=0.5, seed=0)
    w.add_host("h1", 64 * MiB, host_os_bytes=4 * MiB)
    vm = w.add_vm("vm1", 16 * MiB, "h1")
    dev = w.add_ssd("ssd")
    w.hosts["h1"].place_vm(vm, 16 * MiB, dev)
    with pytest.raises(ValueError):
        preload_dataset(vm, w.manager_of("h1"), 12 * MiB,
                        cold_tail_bytes=8 * MiB)
