"""The column-based fleet placement against per-row oracles.

:func:`rebuild_states` is the view's original per-decision rebuild,
kept here as the oracle: every host walked, every row built anew.
:func:`~tests.fleet_reference.reference_select` is the original
per-row pipeline. The scenarios below wrap ``FleetHostView.refresh``
so that *every* placement and rebalance decision compares each field of
each row of the host table with the rebuild's, and wrap
``PlacementPipeline.select`` so that every placement decision equals
the per-row pipeline's over the rebuilt placeable rows (host, reason,
rejection counts and scores). Together they cover every event that
changes a host's VM set: boots and departures under churn with a
drain, an injector host crash, a VMD data-loss crash, a failed
migration (``fail_vm``) and clone boots (flash crowd).

The host table's ``reserved`` column trusts the planner's ledger, so
every run also checks the ledger itself at every placement: migration
claims per host equal the demand of the active plans into it, and boot
claims equal the memory of the scheduler's pending boots per target
host.
"""

from dataclasses import replace

from repro.core.base import MigrationManager, MigrationPhase
from repro.experiments.fleet import make_fleet
from repro.experiments.fleet import quick_config as fleet_quick_config
from repro.experiments.flashcrowd import make_flashcrowd
from repro.experiments.flashcrowd import quick_config as crowd_quick_config
from repro.faults import FaultKind, FaultSchedule, FaultSpec
from repro.fleet.hostview import HostState
from repro.sim.periodic import PeriodicTask
from repro.util import MiB
from repro.vm.vm import VmState
from tests.fleet_reference import reference_select


def rebuild_states(view) -> dict:
    """The oracle: a fresh, name-sorted snapshot built from scratch."""
    world = view.world
    topo = world.topology
    inflight = view.planner.inflight_counts()
    rack_loads: dict[str, int] = {}
    pod_loads: dict[str, int] = {}
    az_loads: dict[str, int] = {}
    states: dict[str, HostState] = {}
    for name in sorted(world.hosts):
        host = world.hosts[name]
        live = []
        tenants: dict[str, int] = {}
        for vm_name in sorted(host.vms):
            if host.vms[vm_name].state is VmState.TERMINATED:
                continue
            live.append(vm_name)
            tenant = view.tenant_of(vm_name)
            if tenant is not None:
                tenants[tenant] = tenants.get(tenant, 0) + 1
        rack = topo.rack_of(name) if topo is not None else None
        pod = topo.pod_of(name) if topo is not None else None
        az = topo.az_of(name) if topo is not None else None
        if rack is not None:
            rack_loads[rack] = rack_loads.get(rack, 0) + len(live)
        if pod is not None:
            pod_loads[pod] = pod_loads.get(pod, 0) + len(live)
        if az is not None:
            az_loads[az] = az_loads.get(az, 0) + len(live)
        health = "UP"
        if view.health is not None:
            health = view.health.state(name).name
        resident = sum(b.pages.resident_bytes()
                       for b in host.memory.bindings)
        states[name] = HostState(
            name=name, rack=rack, pod=pod, az=az,
            usable_bytes=host.memory.usable_bytes(),
            resident_bytes=resident,
            reserved_bytes=view.planner.reserved_on(name),
            health=health,
            inflight=inflight.get(name, 0),
            draining=name in view.draining,
            retired=name in view.retired,
            vms=tuple(live), tenants=tenants)
    for state in states.values():
        if state.rack is not None:
            state.rack_load = rack_loads.get(state.rack, 0)
        if state.pod is not None:
            state.pod_load = pod_loads.get(state.pod, 0)
        if state.az is not None:
            state.az_load = az_loads.get(state.az, 0)
    return states


def assert_ledger_matches(planner, scheduler) -> None:
    """Planner claims per host are exactly what the active plans and
    the pending boots will bring there."""
    into: dict[str, float] = {}
    for plan in planner.active.values():
        into[plan.dst] = into.get(plan.dst, 0.0) + plan.demand_bytes
    assert planner.migration_claims() == into
    boots: dict[str, float] = {}
    for pb in scheduler.pending.values():
        boots[pb.host] = boots.get(pb.host, 0.0) + pb.spec.memory_bytes
    assert planner.boot_claims() == boots


def check_every_decision(scenario) -> list:
    """Make every ``view.refresh()`` (placement, rebalance, reporting)
    compare its rows with the rebuild, and every placement check the
    planner ledger and compare its decision with the per-row
    pipeline's; returns the placement decision times."""
    view = scenario.view
    scheduler = scenario.scheduler
    pipeline = scheduler.pipeline
    live_refresh = view.refresh
    live_select = pipeline.select
    checked = []

    def refresh():
        got = live_refresh()
        want = rebuild_states(view)
        assert list(got) == list(want)
        for name, row in want.items():
            assert got[name] == row, \
                f"{name} @{view.world.now:g}s: {got[name]} != {row}"
        return got

    def select(table, spec):
        assert_ledger_matches(view.planner, scheduler)
        got = live_select(table, spec)
        rows = [s for s in rebuild_states(view).values()
                if not s.draining and not s.retired]
        want = reference_select(rows, pipeline.filters, pipeline.weighers,
                                spec)
        when = f"{spec.name} @{view.world.now:g}s"
        assert (got.host, got.reason) == (want.host, want.reason), when
        assert got.rejected == want.rejected, when
        assert got.scores == want.scores, when
        checked.append(view.world.now)
        return got

    view.refresh = refresh
    pipeline.select = select
    return checked


class FailCounter:
    """Counts ``fail_vm`` calls that actually fail a running migration."""

    def __init__(self, monkeypatch):
        self.n = 0
        original = MigrationManager.fail_vm

        def fail_vm(mgr, reason=""):
            if mgr.phase is not MigrationPhase.DONE \
                    and not mgr.done.triggered:
                self.n += 1
            return original(mgr, reason)

        monkeypatch.setattr(MigrationManager, "fail_vm", fail_vm)


def dead_vms(world) -> int:
    return sum(vm.state is VmState.TERMINATED for vm in world.vms.values())


def test_churn_with_drain_matches_oracle():
    fleet = make_fleet(fleet_quick_config(seed=1))
    checked = check_every_decision(fleet)
    fleet.run()
    c = fleet.scheduler.counters
    assert c["booted"] > 0 and c["departed"] > 0
    assert c["drained_hosts"] == 1
    assert fleet.rebalancer.counters["rounds"] > 0
    assert len(checked) > 20
    fleet.rack_imbalance()


def first_active_source(seed: int) -> tuple[float, str]:
    """Probe a fault-free run for a migration that is running at two
    samples 0.2 s apart; returns the time between them and its source
    host. A faulted run of the same seed is identical until then."""
    fleet = make_fleet(fleet_quick_config(seed=seed))
    supervisor = fleet.control.supervisor
    seen: dict = {}
    found: list = []

    def sample(now):
        if found:
            return
        for mgr in supervisor._active:
            if mgr.phase in (MigrationPhase.IDLE, MigrationPhase.DONE):
                continue
            if id(mgr) in seen and now - seen[id(mgr)] >= 0.2 - 1e-9:
                found.append((now - 0.15, mgr.src.name))
                return
            seen.setdefault(id(mgr), now)

    PeriodicTask(fleet.world.sim, 0.2, sample)
    fleet.run()
    assert found, "the probe run migrated nothing"
    return found[0]


def test_host_crash_and_failed_migration_match_oracle(monkeypatch):
    at, src = first_active_source(seed=0)
    fails = FailCounter(monkeypatch)
    schedule = FaultSchedule([FaultSpec(FaultKind.HOST_CRASH, src, at)])
    fleet = make_fleet(fleet_quick_config(seed=0), schedule)
    checked = check_every_decision(fleet)
    fleet.run()
    assert fails.n >= 1            # the crash failed a running migration
    assert dead_vms(fleet.world) >= 1
    assert any(t > at for t in checked)


def test_vmd_data_loss_crash_matches_oracle():
    at = 10.0
    schedule = FaultSchedule([FaultSpec(
        FaultKind.VMD_CRASH, "vmd0", at, lose_contents=True)])
    fleet = make_fleet(fleet_quick_config(seed=0), schedule)
    world = fleet.world

    def give_every_vm_swap_data():
        # single-copy namespaces holding pages: the donor's loss dooms
        # every VM with a chunk on it
        for name in sorted(world.vms):
            if name in world.vmd.namespaces:
                world.vmd.namespaces[name].preload(8 * MiB)

    world.sim.call_at(at - 0.05, give_every_vm_swap_data)
    checked = check_every_decision(fleet)
    fleet.run()
    doomed = [n for n, ns in world.vmd.namespaces.items() if ns.data_lost]
    assert doomed
    assert dead_vms(world) >= 1
    assert any(t > at for t in checked)


def test_clone_boots_match_oracle():
    crowd = make_flashcrowd(replace(crowd_quick_config(seed=0),
                                    provision="clone"))
    checked = check_every_decision(crowd)
    crowd.run()
    assert crowd.scheduler.counters["cloned"] > 0
    assert len(checked) > 10


def test_late_tenant_label_recounts_its_host():
    fleet = make_fleet(fleet_quick_config(seed=0))
    world, view = fleet.world, fleet.view
    check_every_decision(fleet)
    view.refresh()
    vm = world.add_vm("fixture", 4 * MiB, "r1h1")
    world.hosts["r1h1"].place_vm(vm, 4 * MiB,
                                 world.vmd.create_namespace("fixture"))
    assert view.refresh()["r1h1"].tenants == {}
    # a scenario-placed VM offered as a clone parent gains a tenant
    fleet.scheduler.register_clone_parent("fixture", "t9")
    assert view.refresh()["r1h1"].tenants == {"t9": 1}
