"""SLO-aware shedding scenario: who pays for the rebalance?

An overloaded host runs one *serving* tenant (a closed-loop KV workload
with an attached throughput SLO) next to two idle *batch* VMs. The
watermark trigger fires and must shed load:

* the **blind** arm uses the default largest-first selector — it picks
  the serving VM (the biggest), and the tenant eats the migration's
  degradation window as SLO violation-seconds;
* the **aware** arm passes :func:`repro.telemetry.slo_aware_selector`,
  which sheds the SLO-free batch VMs first — two migrations instead of
  one, but the serving tenant never leaves its host.

The :class:`~repro.telemetry.SloMonitor` accrues violation-seconds per
tenant and attributes each violation window to the migration that
caused it (stop-and-copy / post-copy / live-copy / colocated), and a
:class:`~repro.telemetry.PressureIndex` publishes per-rack and cluster
pressure throughout. The ablation gate asserts the aware arm's
violation-seconds are strictly below the blind arm's — the measured
version of "migrate the cheap VMs".

Everything is deterministic: same seed ⇒ identical violation ledgers
and byte-identical metrics exports (CI re-runs and ``cmp``-checks the
JSONL).
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Optional

from repro.cluster.setup import preload_dataset
from repro.core.base import MigrationConfig
from repro.core.trigger import WatermarkConfig
from repro.experiments.racked import Cluster, build_cluster
from repro.sched import PlannerConfig
from repro.telemetry import (
    PressureIndex,
    SloMonitor,
    SloSpec,
    slo_aware_selector,
)
from repro.util import MiB
from repro.workloads.kv import KeyValueWorkload, ycsb_redis_params

__all__ = ["SloScenarioConfig", "SloLab", "make_slo", "slo_run",
           "slo_ablation"]

#: the serving tenant — largest VM on the hot host, so the blind
#: largest-first selector picks it
SERVING_VM_BYTES = 24 * MiB
SERVING_DATASET_BYTES = 16 * MiB
#: the two SLO-free batch VMs the aware selector sheds instead
BATCH_VM_BYTES = 20 * MiB
#: ops/s floor for the serving tenant — between the worst no-migration
#: window (~8k ops/s during warm-up; steady state is ~16.7k) and the
#: migration-degraded window (~4k), so only migration-induced
#: degradation breaches it
SLO_MIN_THROUGHPUT = 6000.0
PROBE_INTERVAL_S = 1.0
WATERMARK = WatermarkConfig(high_watermark=0.6, low_watermark=0.45,
                            check_interval_s=1.0)


@dataclass(frozen=True)
class SloScenarioConfig:
    """Two racks, one hot host; MiB scale for sub-second runs."""

    __test__ = False

    dt: float = 0.1
    seed: int = 0
    net_bandwidth_bps: float = 20e6
    uplink_bps: float = 40e6
    host_memory_bytes: float = 96 * MiB
    host_os_bytes: float = 2 * MiB
    vmd_server_bytes: float = 256 * MiB
    migration: MigrationConfig = field(default_factory=lambda: MigrationConfig(
        backlog_cap_bytes=4 * MiB, stopcopy_threshold_bytes=256 * 2 ** 10))


@dataclass
class SloLab(Cluster):
    """A wired SLO scenario plus its probes."""

    monitor: SloMonitor
    pressure: PressureIndex
    config: SloScenarioConfig
    serving_vm: str
    batch_vms: list[str]

    def migrated_vms(self) -> list[str]:
        return sorted({r.vm_name for r in self.control.supervisor.attempts})


def make_slo(config: Optional[SloScenarioConfig] = None,
             blind: bool = False, tracer=None, metrics=None) -> SloLab:
    """Wire the scenario.

    Rack ``r0``: ``r0h0`` is the hot host (serving tenant + two batch
    VMs, aggregate WSS over the high watermark), ``r0h1`` is a spare.
    Rack ``r1``: two empty spares. ``blind`` selects the default
    largest-first trigger policy; otherwise the trigger uses the
    SLO-aware selector fed by the monitor.
    """
    cfg = config or SloScenarioConfig()
    cluster = build_cluster(
        cfg, [cfg.host_memory_bytes] * 2, 2, 1, tracer=tracer,
        metrics=metrics,
        planner_config=PlannerConfig(
            min_headroom_bytes=2 * MiB,
            project_watermark=WATERMARK.high_watermark,
            move_cooldown_s=10.0))
    world, control = cluster.world, cluster.control
    world.add_client_host()

    srv = world.boot_vm("srv0", SERVING_VM_BYTES, "r0h0")
    batch = ["b0", "b1"]
    for name in batch:
        vm = world.boot_vm(name, BATCH_VM_BYTES, "r0h0")
        preload_dataset(vm, world.manager_of("r0h0"), BATCH_VM_BYTES)
    preload_dataset(srv, world.manager_of("r0h0"), SERVING_DATASET_BYTES,
                    cold_tail_bytes=SERVING_VM_BYTES
                    - SERVING_DATASET_BYTES)
    wl = KeyValueWorkload(
        srv, world.network, "client", world.manager_of, world.recorder,
        world.rng("wl.srv0"), dataset_bytes=SERVING_DATASET_BYTES,
        params=ycsb_redis_params(), cpu_of=world.cpu_of,
        sim_now=lambda: world.sim.now)
    world.add_workload(wl)
    control.workload_of = {"srv0": wl}.get

    monitor = SloMonitor(
        world, interval_s=PROBE_INTERVAL_S,
        attempts=lambda: (control.supervisor.in_flight()
                          + control.supervisor.attempts))
    monitor.attach("srv0", SloSpec(min_throughput=SLO_MIN_THROUGHPUT),
                   workload=wl)
    pressure = PressureIndex(
        world,
        health=control.health.state if control.health else None)

    select = None if blind else slo_aware_selector(monitor)
    control.add_trigger("r0h0", config=WATERMARK, select=select)

    return SloLab(**vars(cluster), monitor=monitor, pressure=pressure,
                  config=cfg, serving_vm="srv0", batch_vms=batch)


def slo_run(blind: bool = False,
            config: Optional[SloScenarioConfig] = None,
            until: float = 40.0, tracer=None, metrics=None) -> dict:
    """Run one arm and distill the violation ledger.

    The distillation carries everything the ablation gate compares:
    per-tenant violation-seconds, the per-migration attribution map,
    which VMs actually moved, attempt outcomes, and the pressure peaks.
    """
    lab = make_slo(config, blind=blind, tracer=tracer, metrics=metrics)
    lab.run(until=until)
    return {
        "lab": lab,
        "arm": "blind" if blind else "aware",
        "violation_s": lab.monitor.total_violation_s,
        "by_tenant": lab.monitor.violation_seconds(),
        "attribution": lab.monitor.attribution(),
        "migrated": lab.migrated_vms(),
        "outcomes": lab.outcome_counts(),
        "serving_throughput": lab.monitor._probes["srv0"].throughput,
        "pressure_cluster": lab.pressure.cluster,
    }


def slo_ablation(config: Optional[SloScenarioConfig] = None,
                 until: float = 40.0) -> dict:
    """Both arms, same seed: the aware selector must strictly reduce
    the serving tenant's violation-seconds."""
    aware = slo_run(blind=False, config=config, until=until)
    blind = slo_run(blind=True, config=config, until=until)
    return {
        "aware": aware,
        "blind": blind,
        "delta_violation_s": blind["violation_s"] - aware["violation_s"],
    }
