"""Edge cases across modules: empty VMs, conservation properties,
engine management paths."""

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from repro.net import Network, StreamChannel
from repro.sim import Simulator, TickEngine
from repro.util import MiB
from tests.test_migration import make_lab


def test_migrate_vm_with_fully_swapped_memory():
    """A VM whose memory is entirely cold: Agile moves almost nothing."""
    lab = make_lab("agile", vm_mib=16, reservation_mib=32)
    vm = lab.migrate_vm
    vm.pages.swap_out(vm.pages.present_indices())
    # account the swap space for the freshly evicted pages
    lab.world.vmd.namespaces["vm0"].preload(vm.pages.swapped_bytes())
    lab.run_until_migrated(start=2.0, limit=100.0)
    r = lab.report
    assert r.pages_sent == 0
    assert r.pages_skipped_swapped == vm.n_pages
    # only metadata moved: CPU state + offsets + bitmap
    assert r.total_bytes < 6 * MiB
    assert r.total_time < 2.0


def test_migrate_vm_with_no_allocated_memory():
    """A freshly booted VM that never touched its memory."""
    lab = make_lab("pre-copy", vm_mib=16, reservation_mib=32)
    vm = lab.migrate_vm
    vm.pages.drop(np.arange(vm.n_pages))
    lab.run_until_migrated(start=2.0, limit=100.0)
    r = lab.report
    assert r.pages_sent == 0
    assert vm.host == "dst"
    assert r.total_bytes == pytest.approx(vm.cpu_state_bytes)


def test_postcopy_idle_vm_no_demand_fetches():
    lab = make_lab("post-copy", vm_mib=16, reservation_mib=32)
    lab.run_until_migrated(start=2.0, limit=200.0)
    assert lab.report.pages_demand_fetched == 0
    assert lab.report.demand_bytes == 0.0


def test_tick_engine_remove_unknown_participant():
    eng = TickEngine(Simulator(), dt=1.0)
    with pytest.raises(ValueError):
        eng.remove_participant(object())


def test_tick_engine_remove_registered_participant():
    sim = Simulator()
    eng = TickEngine(sim, dt=1.0)
    calls = []

    class P:
        def pre_tick(self, dt):
            calls.append("pre")

        def commit_tick(self, dt):
            pass

    p = P()
    eng.add_participant(p)
    eng.start()
    sim.run(until=1.0)
    eng.remove_participant(p)
    sim.run(until=3.0)
    assert calls == ["pre"]


@settings(max_examples=30, deadline=None)
@given(st.lists(st.integers(min_value=1, max_value=500), min_size=1,
                max_size=15),
       st.integers(min_value=10, max_value=400))
def test_channel_conserves_bytes(job_sizes, bw):
    """Property: every queued byte is delivered exactly once, in order."""
    sim = Simulator()
    net = Network(default_bandwidth_bps=float(bw), latency_s=0.0)
    net.add_host("a")
    net.add_host("b")
    eng = TickEngine(sim, dt=1.0)
    eng.add_arbiter(net)
    chan = StreamChannel(sim, net, "a", "b")
    eng.add_participant(chan)
    eng.start()
    done = []
    for i, size in enumerate(job_sizes):
        chan.send(float(size), info=i, on_complete=lambda j: done.append(j))
    horizon = sum(job_sizes) / bw + 5.0
    sim.run(until=horizon)
    assert [j.info for j in done] == list(range(len(job_sizes)))
    assert sum(j.size for j in done) == sum(job_sizes)
    assert chan.backlog == 0.0
    assert chan.flow.total_bytes == pytest.approx(sum(job_sizes), abs=1e-6)


def test_zero_latency_intra_host_channel():
    sim = Simulator()
    net = Network(default_bandwidth_bps=100.0, latency_s=0.001)
    net.add_host("a")
    eng = TickEngine(sim, dt=1.0)
    eng.add_arbiter(net)
    chan = StreamChannel(sim, net, "a", "a")
    eng.add_participant(chan)
    eng.start()
    times = []
    chan.send(1e9, on_complete=lambda j: times.append(sim.now))
    sim.run(until=2.0)
    # intra-host: unconstrained bandwidth, no propagation latency
    assert times == [1.0]
