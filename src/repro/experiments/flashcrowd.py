"""Flash-crowd scenario: clone forks vs full-copy boots at scale-out.

A hot tenant's single parent VM suddenly needs N serving replicas (the
flash crowd) while a background churn stream keeps the cluster busy.
Two provisioning arms over the identical demand stream:

* ``clone`` — the :mod:`repro.clone` path: the first replica boot
  triggers a streamed snapshot of the parent into a shared VMD image;
  every replica forks against it and hydrates post-copy style (demand
  fetches for the hot set, umem paging from the live parent for pages
  the snapshot has not staged yet, background gather for the cold
  tail). A replica *serves* once its hot template fraction is resident.
* ``fullcopy`` — the baseline: each replica boot copies the parent's
  entire memory over the network before serving, one stream per
  replica, all contending on the parent host's uplink.

The headline metrics are **time to N serving replicas** (from the
flash) and **bytes moved to get there** — the agility claim, cashed in
as a provisioning primitive: clones serve after fetching only the hot
set, and move each cold byte once (scatter) instead of once per
replica.

Like the fleet scenario this is workload-free, MiB-scale, and
tick-deterministic: two same-seed runs produce byte-identical
placement/serving logs and traces. :func:`flashcrowd_ablation` is the
CI gate (clone must be strictly faster to N serving at seed 0).
"""

from __future__ import annotations

from dataclasses import dataclass, field, replace
from typing import Optional

from repro.clone import CloneConfig, CloneManager
from repro.cluster.setup import preload_dataset
from repro.cluster.world import WORKLOAD_ORDER, World
from repro.experiments.racked import (
    Cluster,
    RackedConfig,
    build_racked,
    fleet_services,
)
from repro.faults import FaultSchedule
from repro.fleet import (
    DemandConfig,
    DemandGenerator,
    FleetHostView,
    FleetScheduler,
    FleetServiceConfig,
    VmSpec,
)
from repro.net.channel import StreamChannel
from repro.util import MiB

__all__ = ["FlashCrowd", "FlashCrowdConfig", "FullCopyProvisioner",
           "flashcrowd_ablation", "flashcrowd_run", "make_flashcrowd",
           "quick_config"]

PARENT_NAME = "hotparent"
#: the flash-crowd tenant, its pre-placed parent VM and where it runs
HOT_TENANT = "hot"
PARENT_HOST = "r0h0"
PARENT_MEMORY_BYTES = 24 * MiB
#: gap between consecutive replica boot requests of the flash
REPLICA_STAGGER_S = 0.2

#: the flash crowd's cluster: roomier hosts and donors than the fleet's,
#: a shorter run, and lighter background churn
CLUSTER = RackedConfig(
    host_memory_bytes=96 * MiB, vmd_server_bytes=2048 * MiB, until=30.0,
    demand=DemandConfig(pattern="bursty", horizon_s=20.0,
                        base_rate_per_s=0.4, n_tenants=4,
                        mean_lifetime_s=20.0, min_lifetime_s=6.0))


@dataclass(frozen=True)
class FlashCrowdConfig:
    """The flash crowd over a racked cluster; MiB scale for sub-second
    CI runs."""

    __test__ = False

    #: cluster, background churn (identical in both arms) and run length
    cluster: RackedConfig = CLUSTER
    #: provisioning arm: ``clone`` or ``fullcopy``
    provision: str = "clone"
    #: the flash: N replica boots arriving in a tight stagger
    n_replicas: int = 8
    flash_at: float = 4.0
    #: replicas that must be serving for the time-to-N metric
    serving_target: int = 8
    clone: CloneConfig = field(default_factory=CloneConfig)

    def __post_init__(self):
        if self.provision not in ("clone", "fullcopy"):
            raise ValueError(f"unknown provision arm: {self.provision}")
        if self.serving_target > self.n_replicas:
            raise ValueError("serving_target exceeds n_replicas")


def quick_config(seed: int = 0, **overrides) -> FlashCrowdConfig:
    """The CI-sized run: 6 replicas, 20 s simulated."""
    demand = DemandConfig(pattern="bursty", horizon_s=14.0,
                          base_rate_per_s=0.4, n_tenants=4,
                          mean_lifetime_s=15.0, min_lifetime_s=5.0,
                          seed=seed)
    return FlashCrowdConfig(
        cluster=replace(CLUSTER, seed=seed, until=20.0, demand=demand),
        n_replicas=6, serving_target=6, **overrides)


class FullCopyProvisioner:
    """Baseline boot path: hot-tenant replicas copy the parent's full
    memory over the network before serving.

    Installed as the scheduler's ``boot_fn``: background tenants fall
    through to the default boot (instantly resident, same as the clone
    arm), hot-tenant boots place an empty VM and open a
    :class:`~repro.net.channel.StreamChannel` from the parent host —
    the replica serves only once the last byte has landed.
    """

    def __init__(self, world: World):
        self.world = world
        #: called with the replica's name once its copy has landed
        self.on_serving = None
        self.tracer = world.tracer
        #: set after the scheduler exists (its bound default boot)
        self.fallback = None
        self.channels: list[StreamChannel] = []
        #: vm name -> (start, serving_time or None, bytes)
        self.reports: dict[str, dict] = {}

    def boot(self, spec: VmSpec, host_name: str) -> None:
        if spec.tenant != HOT_TENANT:
            self.fallback(spec, host_name)
            return
        world = self.world
        world.boot_vm(spec.name, spec.memory_bytes, host_name)
        parent = world.vms[PARENT_NAME]
        binding = world.manager_of(parent.host).binding(PARENT_NAME)
        pages = binding.pages
        copy_bytes = float(pages.present.sum()
                           + pages.swapped.sum()) * pages.page_size
        chan = StreamChannel(world.sim, world.network, PARENT_HOST,
                             host_name, priority=1,
                             name=f"fullcopy:{spec.name}",
                             tracer=self.tracer)
        world.engine.add_participant(chan, order=WORKLOAD_ORDER)
        self.channels.append(chan)
        self.reports[spec.name] = {"start": world.now,
                                   "serving_time": None,
                                   "bytes": copy_bytes}
        span = self.tracer.async_begin(
            "clone", "fullcopy-boot", cat="clone",
            args={"vm": spec.name, "host": host_name,
                  "bytes": copy_bytes}) if self.tracer.enabled else 0
        chan.send(copy_bytes,
                  on_complete=lambda job, name=spec.name, c=chan,
                  s=span: self._copied(name, c, s))

    def _copied(self, name: str, chan: StreamChannel, span: int) -> None:
        world = self.world
        vm = world.vms.get(name)
        chan.close()
        world.engine.remove_participant(chan)
        if vm is None or vm.pages is None:
            return  # died mid-copy
        preload_dataset(vm, world.manager_of(vm.host), vm.memory_bytes)
        self.reports[name]["serving_time"] = world.now
        if span:
            self.tracer.async_end(span)
        if self.on_serving is not None:
            self.on_serving(name)

    def bytes_sent(self) -> float:
        """Bytes the full-copy arm pushed, partial streams included."""
        return sum(c.bytes_delivered for c in self.channels)


@dataclass
class FlashCrowd(Cluster):
    """A wired flash-crowd scenario plus its serving bookkeeping."""

    view: FleetHostView
    scheduler: FleetScheduler
    clone: Optional[CloneManager]
    fullcopy: Optional[FullCopyProvisioner]
    #: background + hot demand (determinism witness)
    specs: list
    hot_specs: list
    config: FlashCrowdConfig
    serving_log: list[str] = field(default_factory=list)
    #: (vm name, sim time) per hot replica reaching serving
    hot_serving: list = field(default_factory=list)
    time_to_n_serving: Optional[float] = None
    bytes_to_serving: Optional[float] = None

    def run(self, until: Optional[float] = None) -> None:
        super().run(self.config.cluster.until if until is None else until)

    def provision_bytes(self) -> float:
        """Bytes the provisioning substrate moved so far."""
        if self.clone is not None:
            return self.clone.provision_bytes()
        return self.fullcopy.bytes_sent()

    def note_serving(self, name: str) -> None:
        now = self.world.now
        self.serving_log.append(f"serve {name} @{now:g}s")
        self.hot_serving.append((name, now))
        if (self.time_to_n_serving is None
                and len(self.hot_serving) >= self.config.serving_target):
            self.time_to_n_serving = now - self.config.flash_at
            self.bytes_to_serving = self.provision_bytes()
            self.serving_log.append(
                f"target {self.config.serving_target} serving "
                f"@{now:g}s (+{self.time_to_n_serving:g}s)")


def _hot_specs(cfg: FlashCrowdConfig) -> list:
    return [VmSpec(name=f"hot{i}", tenant=HOT_TENANT,
                   memory_bytes=PARENT_MEMORY_BYTES, workload="kv",
                   arrival_s=cfg.flash_at + i * REPLICA_STAGGER_S,
                   lifetime_s=None)
            for i in range(cfg.n_replicas)]


def make_flashcrowd(config: Optional[FlashCrowdConfig] = None,
                    schedule: Optional[FaultSchedule] = None,
                    tracer=None, metrics=None) -> FlashCrowd:
    """Wire the flash-crowd scenario for the configured arm.

    Both arms share everything up to the boot path: same cluster, same
    parent, same background churn, same placement pipeline. Only how a
    hot replica's memory reaches its host differs.
    """
    cfg = config or FlashCrowdConfig()
    cluster = build_racked(cfg.cluster, schedule, tracer, metrics)
    world = cluster.world

    # the hot parent: pre-placed and preloaded before any demand
    parent = world.boot_vm(PARENT_NAME, PARENT_MEMORY_BYTES, PARENT_HOST)
    preload_dataset(parent, world.manager_of(PARENT_HOST),
                    PARENT_MEMORY_BYTES)

    clone = fullcopy = None
    if cfg.provision == "clone":
        clone = CloneManager(world, config=cfg.clone)
        view, scheduler = fleet_services(
            cluster, config=FleetServiceConfig(clone_tenants=(HOT_TENANT,)),
            clone=clone)
    else:
        fullcopy = FullCopyProvisioner(world)
        view, scheduler = fleet_services(cluster, boot_fn=fullcopy.boot)
        fullcopy.fallback = scheduler._default_boot
    scheduler.register_clone_parent(PARENT_NAME, HOT_TENANT)

    hot = _hot_specs(cfg)
    background = DemandGenerator(cfg.cluster.seeded_demand()).generate()
    scheduler.run_demand(background + hot)

    fc = FlashCrowd(**vars(cluster), view=view, scheduler=scheduler,
                    clone=clone, fullcopy=fullcopy, specs=background,
                    hot_specs=hot, config=cfg)
    if clone is not None:
        clone.on_serving = fc.note_serving
    else:
        fullcopy.on_serving = fc.note_serving
    return fc


def flashcrowd_run(config: Optional[FlashCrowdConfig] = None,
                   schedule: Optional[FaultSchedule] = None,
                   tracer=None, metrics=None) -> dict:
    """Run one arm and distill the outcome.

    ``placement_log`` + ``serving_log`` (+ ``clone_log`` in the clone
    arm) are the determinism witnesses: two same-seed runs must produce
    them byte-identically, and byte-identical traces when recorded.
    """
    fc = make_flashcrowd(config, schedule, tracer=tracer,
                         metrics=metrics)
    fc.run()
    sched = fc.scheduler
    cfg = fc.config
    return {
        "scenario": fc,
        "provision": cfg.provision,
        "arrivals": len(fc.specs) + len(fc.hot_specs),
        "counters": dict(sched.counters),
        "rejected": list(sched.rejected),
        "placement_log": list(sched.placement_log),
        "serving_log": list(fc.serving_log),
        "clone_log": list(fc.clone.log) if fc.clone is not None else [],
        "hot_serving": list(fc.hot_serving),
        "time_to_n_serving": fc.time_to_n_serving,
        "bytes_to_serving": fc.bytes_to_serving,
        "provision_bytes": fc.provision_bytes(),
        "alive": len(sched.running),
        "summary": (fc.clone.describe() if fc.clone is not None
                    else f"fullcopy: {len(fc.fullcopy.reports)} streams, "
                         f"{fc.fullcopy.bytes_sent() / MiB:.1f} MiB sent"),
    }


def flashcrowd_ablation(seed: int = 0, quick: bool = False,
                        config: Optional[FlashCrowdConfig] = None) -> dict:
    """Clone forks vs full-copy boots on one demand stream.

    Both arms see byte-for-byte the same arrivals, cluster, and
    pipeline; only the hot tenant's provisioning path differs. The gate
    is strict: clones must reach N serving replicas *faster* (the whole
    point of memory-streaming forks), with bytes-moved reported for
    both arms.
    """
    base = config or (quick_config(seed=seed) if quick
                      else FlashCrowdConfig(cluster=replace(CLUSTER, seed=seed)))
    arms = {}
    for provision in ("clone", "fullcopy"):
        arms[provision] = flashcrowd_run(replace(base,
                                                 provision=provision))
    clone_t = arms["clone"]["time_to_n_serving"]
    full_t = arms["fullcopy"]["time_to_n_serving"]
    return {
        "clone": arms["clone"],
        "fullcopy": arms["fullcopy"],
        "clone_time": clone_t,
        "fullcopy_time": full_t,
        "clone_bytes": arms["clone"]["bytes_to_serving"],
        "fullcopy_bytes": arms["fullcopy"]["bytes_to_serving"],
        "clone_wins_time": (clone_t is not None
                            and (full_t is None or clone_t < full_t)),
    }
