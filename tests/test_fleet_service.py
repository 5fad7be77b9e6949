"""repro.fleet scheduler service: boot lifecycle + ledger sharing,
retry/reject, decommission-drain, and crash-during-drain recovery."""

from dataclasses import replace

from repro.experiments.fleet import FleetConfig, make_fleet
from repro.faults import FaultKind, FaultSchedule, FaultSpec
from repro.fleet import DemandConfig, VmSpec
from repro.util import MiB


def quiet_config(**overrides) -> FleetConfig:
    """A 2x2 cluster with no demand stream and no auto-decommission —
    tests drive the scheduler by hand."""
    base = FleetConfig(
        n_racks=2, hosts_per_rack=2,
        host_memory_bytes=64 * MiB,
        demand=DemandConfig(base_rate_per_s=0.0, horizon_s=1.0),
        decommission_host=None)
    return replace(base, **overrides) if overrides else base


def vm_spec(name, memory=16 * MiB, lifetime=5.0, tenant="t0"):
    return VmSpec(name=name, tenant=tenant, memory_bytes=memory,
                  workload="kv", arrival_s=0.0, lifetime_s=lifetime)


def test_boot_lifecycle_shares_the_reservation_ledger():
    fleet = make_fleet(quiet_config())
    sched, planner = fleet.scheduler, fleet.control.planner
    host = sched.submit(vm_spec("vma"))
    assert host is not None
    # during the boot delay the claim sits in the planner ledger and the
    # host view reports it — placement and migration see one truth
    assert planner.reserved_on(host) == 16 * MiB
    assert fleet.view.refresh()[host].reserved_bytes == 16 * MiB
    fleet.run(until=1.0)
    # booted: pages registered, claim released, lifecycle tracked
    assert sched.counters["booted"] == 1
    assert planner.reserved_on(host) == 0.0
    assert fleet.world.vms["vma"].host == host
    assert fleet.world.hosts[host].memory.has_vm("vma")
    assert "vma" in fleet.world.vmd.namespaces
    # lease expiry: the VM leaves no residue anywhere
    fleet.run(until=8.0)
    assert sched.counters["departed"] == 1
    assert "vma" not in fleet.world.vms
    assert "vma" not in fleet.world.hosts[host].vms
    assert "vma" not in fleet.world.vmd.namespaces
    assert not fleet.world.hosts[host].memory.has_vm("vma")


def test_boot_window_reservation_prevents_double_booking():
    fleet = make_fleet(quiet_config())
    sched = fleet.scheduler
    first = sched.submit(vm_spec("vma", memory=40 * MiB))
    second = sched.submit(vm_spec("vmb", memory=40 * MiB))
    # without the boot ledger both 40 MiB boots would pick the same
    # freest host and overcommit it when the pages landed
    assert first is not None and second is not None
    assert first != second


def test_boot_retry_backoff_then_reject():
    fleet = make_fleet(quiet_config())
    sched = fleet.scheduler
    assert sched.submit(vm_spec("vmbig", memory=200 * MiB)) is None
    # backoff 1 + 2 + 4 s: attempts at ~0, 1, 3, 7 → rejected at 7
    fleet.run(until=10.0)
    assert sched.counters["retried"] == 3
    assert sched.counters["rejected"] == 1
    assert sched.rejected == ["vmbig"]
    assert sched.counters["booted"] == 0
    assert "vmbig" not in fleet.world.vms


def test_decommission_drain_evacuates_and_retires():
    fleet = make_fleet(quiet_config())
    sched = fleet.scheduler
    host = sched.submit(vm_spec("vma", lifetime=None))
    fleet.run(until=1.0)
    assert fleet.world.vms["vma"].host == host
    sched.decommission(host)
    fleet.run(until=30.0)
    # the resident evacuated through the planner and the host retired
    assert sched.counters["drained_hosts"] == 1
    assert host in fleet.view.retired
    assert fleet.world.vms["vma"].host != host
    assert fleet.world.vms["vma"].is_running
    assert not fleet.world.hosts[host].vms
    # a retired host takes no further placements
    other = sched.submit(vm_spec("vmb"))
    assert other is not None and other != host


def test_host_crash_during_drain_requeues_pending_boots():
    """The satellite scenario: a host crashes while draining, with a
    boot still inside its boot delay targeting it — the boot must fail
    back into the retry queue, not land on the corpse."""
    # all four hosts are empty and tie on score: the first submit
    # deterministically picks the lexicographic minimum, r0h0
    schedule = FaultSchedule(
        [FaultSpec(FaultKind.HOST_CRASH, "r0h0", at=0.3)])
    fleet = make_fleet(quiet_config(), schedule=schedule)
    sched = fleet.scheduler
    target = sched.submit(vm_spec("vma"))        # boot completes at 0.5
    assert target == "r0h0"
    fleet.world.sim.call_at(0.2, sched.decommission, "r0h0")
    fleet.run(until=5.0)
    # the pending boot was pulled back at the crash and re-placed on a
    # surviving host after backoff
    assert sched.counters["crash_requeued"] == 1
    assert sched.counters["booted"] == 1
    assert fleet.world.vms["vma"].host != "r0h0"
    assert fleet.world.vms["vma"].is_running
    # the crashed host's claim was released with the requeue
    assert fleet.control.planner.reserved_on("r0h0") == 0.0
    # the (empty) drain still completed
    assert sched.counters["drained_hosts"] == 1
    assert any("requeue vma" in line for line in sched.placement_log)


def test_crash_outside_drain_also_requeues():
    schedule = FaultSchedule(
        [FaultSpec(FaultKind.HOST_CRASH, "r0h0", at=0.2)])
    fleet = make_fleet(quiet_config(), schedule=schedule)
    sched = fleet.scheduler
    assert sched.submit(vm_spec("vma")) == "r0h0"
    fleet.run(until=5.0)
    assert sched.counters["crash_requeued"] == 1
    assert fleet.world.vms["vma"].host != "r0h0"
    assert fleet.world.vms["vma"].is_running


# -- clone boots --------------------------------------------------------------

def flash_config(**overrides):
    """A flash-crowd config with no background churn — tests see only
    the hot tenant's clone boots."""
    from repro.experiments.flashcrowd import CLUSTER, FlashCrowdConfig
    base = FlashCrowdConfig(
        cluster=replace(CLUSTER, until=10.0, demand=DemandConfig(
            base_rate_per_s=0.0, horizon_s=1.0)),
        n_replicas=3, serving_target=3, flash_at=0.5)
    return replace(base, **overrides) if overrides else base


def test_clone_boots_fork_from_the_registered_parent():
    from repro.experiments.flashcrowd import make_flashcrowd
    fc = make_flashcrowd(flash_config())
    fc.run()
    sched = fc.scheduler
    # every hot boot went through the clone path, via the same
    # pipeline + ledger as a full boot
    assert sched.counters["booted"] == 3
    assert sched.counters["cloned"] == 3
    assert any(l.startswith("clone hot0 <- hotparent")
               for l in sched.placement_log)
    assert fc.clone.counters["snapshots"] == 1
    assert fc.clone.counters["serving"] == 3
    # replicas live under fleet lifecycle tracking like any boot
    for name in ("hot0", "hot1", "hot2"):
        assert name in sched.running
        assert fc.clone.owns(name)


def test_clone_tenant_filter_keeps_other_tenants_on_full_boots():
    from repro.experiments.flashcrowd import (
        PARENT_MEMORY_BYTES,
        make_flashcrowd,
    )
    fc = make_flashcrowd(flash_config())
    sched = fc.scheduler
    # same geometry as the parent, different tenant: must not clone
    sched.submit(VmSpec(name="other", tenant="t0",
                        memory_bytes=PARENT_MEMORY_BYTES,
                        workload="kv", arrival_s=0.0, lifetime_s=None))
    fc.run(until=2.0)
    assert sched.counters["cloned"] >= 1     # the hot tenant cloned
    assert not fc.clone.owns("other")
    assert "other" in fc.world.vmd.namespaces  # full boot: own namespace


def test_clone_replica_departure_tears_down_clone_resources():
    from repro.experiments.flashcrowd import make_flashcrowd
    fc = make_flashcrowd(flash_config())
    fc.run(until=5.0)
    sched = fc.scheduler
    vmd = fc.world.vmd
    image_ns = fc.clone.replicas["hot0"].image.namespace.name
    sched.depart("hot0")
    assert "hot0" not in sched.running
    assert "hot0" not in fc.world.vms
    assert not fc.clone.owns("hot0")
    assert "hot0.cow" not in vmd.namespaces   # overlay freed
    assert image_ns in vmd.namespaces         # siblings still hold refs
    # the remaining siblings are untouched
    assert fc.clone.owns("hot1") and fc.clone.owns("hot2")
    # all siblings gone + image dropped -> the image namespace frees
    sched.depart("hot1")
    sched.depart("hot2")
    fc.clone.drop_image("hotparent")
    assert image_ns not in vmd.namespaces
