"""Tests for access distributions (uniform and Zipf)."""

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from repro.cluster import World, preload_dataset
from repro.util import MiB
from repro.workloads import (
    KeyValueWorkload,
    UniformAccess,
    ZipfAccess,
    ycsb_redis_params,
)


def mask(n, idx):
    m = np.zeros(n, dtype=bool)
    m[list(idx)] = True
    return m


# -- uniform -------------------------------------------------------------------

def test_uniform_probability_is_fraction():
    u = UniformAccess()
    assert u.class_probability(mask(10, [0, 1, 2])) == pytest.approx(0.3)
    assert u.class_probability(np.zeros(0, dtype=bool)) == 0.0


def test_uniform_sample_distinct_members():
    u = UniformAccess()
    rng = np.random.default_rng(0)
    got = u.sample(mask(100, range(50)), 10, rng)
    assert got.size == 10
    assert len(set(got.tolist())) == 10
    assert np.all(got < 50)


def test_uniform_sample_returns_all_when_few():
    u = UniformAccess()
    rng = np.random.default_rng(0)
    got = u.sample(mask(10, [3, 7]), 5, rng)
    assert sorted(got.tolist()) == [3, 7]


# -- zipf ---------------------------------------------------------------------

def test_zipf_validation():
    with pytest.raises(ValueError):
        ZipfAccess(theta=0.0)


def test_zipf_head_is_hot():
    z = ZipfAccess(theta=0.99)
    n = 1000
    head = z.class_probability(mask(n, range(10)))
    tail = z.class_probability(mask(n, range(n - 10, n)))
    assert head > 20 * tail


def test_zipf_probabilities_sum_to_one():
    z = ZipfAccess(theta=0.8)
    full = z.class_probability(np.ones(500, dtype=bool))
    assert full == pytest.approx(1.0)


def test_zipf_weights_adapt_to_region_size():
    z = ZipfAccess()
    p_small = z.class_probability(mask(10, [0]))
    p_large = z.class_probability(mask(10000, [0]))
    assert p_small > p_large  # page 0's share shrinks in a bigger region


def test_zipf_sampling_prefers_head():
    z = ZipfAccess(theta=1.2)
    rng = np.random.default_rng(1)
    n = 1000
    counts = np.zeros(n)
    for _ in range(200):
        got = z.sample(np.ones(n, dtype=bool), 5, rng)
        counts[got] += 1
    assert counts[:20].sum() > counts[-500:].sum()


@settings(max_examples=30, deadline=None)
@given(st.integers(1, 200), st.data())
def test_distribution_invariants(n, data):
    """Property: probabilities in [0,1]; disjoint classes add up."""
    dist = data.draw(st.sampled_from([UniformAccess(), ZipfAccess(0.99)]))
    cut = data.draw(st.integers(0, n))
    a = np.zeros(n, dtype=bool)
    a[:cut] = True
    b = ~a
    pa, pb = dist.class_probability(a), dist.class_probability(b)
    assert 0.0 <= pa <= 1.0 + 1e-9
    assert pa + pb == pytest.approx(1.0)


@settings(max_examples=100, deadline=None)
@given(st.integers(1, 400), st.floats(0.01, 1.0), st.integers(1, 60),
       st.integers(0, 2 ** 32 - 1), st.booleans())
def test_write_set_prefix_sample_matches_the_masked_region(
        n, fraction, k, seed, zipf):
    """The workload samples its hot write set from the region's prefix
    view; it must return the same pages and leave the rng in the same
    state as the old path, which masked the region's tail off a copy."""
    dist = ZipfAccess(0.99) if zipf else UniformAccess()
    present = np.random.default_rng(seed).random(n) < 0.6
    w_len = max(1, int(n * fraction))
    w_mask = present.copy()
    w_mask[w_len:] = False
    old_rng, new_rng = (np.random.default_rng(seed) for _ in range(2))
    want = dist.sample(w_mask, k, old_rng)
    got = dist.sample(present[:w_len], k, new_rng, region=n)
    assert got.tolist() == want.tolist()
    assert new_rng.random() == old_rng.random()


# -- integration: zipf workload keeps its hot head resident ----------------------

def test_zipf_workload_hot_head_stays_resident():
    w = World(dt=0.5, seed=4, net_bandwidth_bps=50e6)
    w.add_host("h1", 64 * MiB, host_os_bytes=4 * MiB)
    w.add_client_host()
    vm = w.add_vm("vm1", 48 * MiB, "h1")
    dev = w.add_ssd("ssd", read_bps=20e6, write_bps=10e6)
    w.hosts["h1"].place_vm(vm, 8 * MiB, dev)
    preload_dataset(vm, w.manager_of("h1"), 32 * MiB)
    wl = KeyValueWorkload(
        vm, w.network, "client", w.manager_of, w.recorder, w.rng("wl"),
        dataset_bytes=32 * MiB, params=ycsb_redis_params(),
        distribution=ZipfAccess(theta=0.99), sim_now=lambda: w.sim.now)
    w.add_workload(wl)
    w.run(until=60.0)
    # under LRU + zipf, the hottest pages converge into residency
    head = vm.pages.present[:64]
    tail = vm.pages.present[4096:4160]
    assert head.mean() > tail.mean()
    # and a skewed workload runs faster than a uniform one over the
    # same over-committed region (its effective working set fits)
    w2 = World(dt=0.5, seed=4, net_bandwidth_bps=50e6)
    w2.add_host("h1", 64 * MiB, host_os_bytes=4 * MiB)
    w2.add_client_host()
    vm2 = w2.add_vm("vm1", 48 * MiB, "h1")
    dev2 = w2.add_ssd("ssd", read_bps=20e6, write_bps=10e6)
    w2.hosts["h1"].place_vm(vm2, 8 * MiB, dev2)
    preload_dataset(vm2, w2.manager_of("h1"), 32 * MiB)
    wl2 = KeyValueWorkload(
        vm2, w2.network, "client", w2.manager_of, w2.recorder, w2.rng("wl"),
        dataset_bytes=32 * MiB, params=ycsb_redis_params(),
        sim_now=lambda: w2.sim.now)
    w2.add_workload(wl2)
    w2.run(until=60.0)
    zipf_tput = w.recorder.series("vm1.throughput").between(30, 60).mean()
    uni_tput = w2.recorder.series("vm1.throughput").between(30, 60).mean()
    assert zipf_tput > 1.5 * uni_tput
