#!/usr/bin/env python
"""End-to-end automatic rebalancing (§III-B): watermark trigger + Agile.

Four VMs with WSS trackers run on one host; their working sets grow over
time. When the aggregate tracked WSS crosses the high watermark, the
trigger selects the fewest VMs to push the aggregate below the low
watermark and launches Agile migrations for them. This example wires
trigger → selection → migration manager — the full control loop the
paper describes but only evaluates piecewise.

Run:  python examples/watermark_rebalance.py
"""

from functools import partial

from repro.cluster.scenarios import TestbedConfig, make_pressure_scenario
from repro.core import AgileMigration, WatermarkTrigger, WssTracker
from repro.core.trigger import WatermarkConfig
from repro.core.wss import WssTrackerConfig
from repro.faults import MigrationSupervisor, RetryPolicy
from repro.util import GiB

CFG = TestbedConfig(seed=5)


def main() -> None:
    # Reuse the pressure scenario plumbing but do NOT schedule a manual
    # migration: the trigger decides when and which VM moves.
    # Start with small reservations (as if the trackers had converged
    # during the quiet 200 MB phase); they grow with the load ramp until
    # the aggregate crosses the high watermark.
    lab = make_pressure_scenario("agile", "kv", reservation_bytes=2 * GiB,
                                 config=CFG)
    world = lab.world
    src, dst = lab.src, lab.dst

    trackers = {
        vm.name: WssTracker(
            world.sim, vm.name,
            lambda vm=vm: world.manager_of(vm.host),
            world.recorder,
            config=WssTrackerConfig(min_reservation_bytes=1 * GiB),
            max_reservation_bytes=8 * GiB)
        for vm in lab.vms
    }
    supervisor = MigrationSupervisor(world,
                                     policy=RetryPolicy(max_retries=0))
    launched = []

    def launch_migrations(names):
        print(f"[{world.now:7.1f}s] trigger: migrating {names} "
              f"(aggregate WSS over high watermark)")
        for name in names:
            vm = world.vms[name]
            trackers[name].stop()  # hand control to the migration
            final = supervisor.dispatch(partial(
                AgileMigration, world.sim, world.network, src, dst, vm,
                world.recorder, config=CFG.migration,
                workload=lab.workload_of(vm)))
            launched.append(name)
            final.add_callback(lambda ev: print(
                f"[{world.now:7.1f}s] migration of "
                f"{ev.value.vm_name} done: "
                f"{ev.value.total_time:.0f}s, "
                f"{ev.value.total_bytes / GiB:.2f} GiB"))

    trigger = WatermarkTrigger(
        world.sim, usable_bytes=src.memory.usable_bytes(),
        wss_of=lambda: {name: tr.estimated_wss_bytes()
                        for name, tr in trackers.items()
                        if not world.vms[name].migrating
                        and world.vms[name].host == "src"},
        migrate=launch_migrations,
        recorder=world.recorder,
        config=WatermarkConfig(high_watermark=0.95, low_watermark=0.80,
                               check_interval_s=10.0))

    print("Running: working sets ramp from 200 MB to 6 GiB per VM "
          "(staggered)...")
    world.run(until=900.0)

    agg = world.recorder.series("trigger.aggregate_wss")
    print(f"\naggregate tracked WSS at end: {agg.v[-1] / GiB:.1f} GiB "
          f"(host usable: {src.memory.usable_bytes() / GiB:.1f} GiB)")
    print(f"trigger fired {trigger.trigger_count} time(s); "
          f"{len(launched)} migration(s) launched")
    placement = {h: sorted(world.hosts[h].vms) for h in world.hosts}
    print(f"final placement: {placement}")


if __name__ == "__main__":
    main()
