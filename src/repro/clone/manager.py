"""The clone control plane: images, forks, teardown, fault reactions.

:class:`CloneManager` owns every clone artifact in one world: parent
images (one live image per parent VM, shared by all its replicas via
namespace refcounting), per-replica overlays, fetchers, and umem
channels. It is the single place where clone resources are created and
released, so teardown stays leak-free under churn:

* :meth:`snapshot` captures a parent image (instant or streamed);
* :meth:`boot_replica` forks a replica onto a host: retain the image
  namespace, create the private overlay, place the VM with a
  :class:`~repro.clone.cow.CowBackend`, adopt staged pages as swap
  contents, and start a :class:`~repro.clone.replica.ReplicaFetcher`
  (plus an :class:`~repro.core.umem.UmemFaultHandler` to the live
  parent while the image is incomplete);
* :meth:`teardown` / :meth:`release_replica` undo exactly that, in
  reverse order — the image namespace's bytes are freed only when the
  last sibling releases its reference;
* the **fault matrix** (DESIGN.md §11): a host/rack crash fails the
  replicas on it and aborts snapshots streaming from it; a
  content-losing donor crash re-replicates (``replication >= 2``,
  traced as ``reprotect``) or fails exactly the replicas that still
  needed the lost namespace — never their hydrated siblings.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import TYPE_CHECKING, Optional

import numpy as np

from repro.clone.cow import CowBackend
from repro.clone.image import CloneImage, ImageSnapshotter
from repro.clone.replica import CloneReport, ReplicaFetcher
from repro.cluster.world import WORKLOAD_ORDER
from repro.core.base import PendingScan
from repro.core.umem import UmemFaultHandler
from repro.faults.injector import HOST_LOSS, hosts_hit
from repro.faults.spec import FaultKind
from repro.vm.vm import VmState

if TYPE_CHECKING:  # pragma: no cover - typing only
    from repro.cluster.world import World

__all__ = ["CloneConfig", "CloneManager", "CloneReplica"]


@dataclass(frozen=True)
class CloneConfig:
    """Knobs for image capture and replica hydration."""

    #: copies of image + overlay bytes on the donors (>= 2 survives a
    #: content-losing donor crash via background re-replication)
    replication: int = 1
    #: leading fraction of the address space a serving replica needs
    hot_fraction: float = 0.25
    #: hot-template residency fraction at which a replica is *serving*
    serving_fraction: float = 0.9
    #: per-replica demand fetch budget (hot pages, fault priority)
    demand_bps: float = 16e6
    #: per-replica background gather budget (cold pages, low priority)
    gather_bps: float = 2e6
    #: fraction of freshly fetched hot pages the replica dirties (CoW)
    dirty_fraction: float = 0.05
    #: flow priority of demand fetches (0 = fault-critical)
    demand_priority: int = 0
    #: flow priority of the snapshot scatter stream
    snapshot_priority: int = 1
    #: flow priority of gather prefetch and overlay writeback
    gather_priority: int = 2
    #: snapshot scatter chunk (backlog cap is 4x this, the scatter idiom)
    snapshot_chunk_bytes: float = 4 * 2 ** 20

    def __post_init__(self):
        if self.replication < 1:
            raise ValueError("replication must be >= 1")
        if not 0 < self.hot_fraction <= 1:
            raise ValueError("hot_fraction must be in (0, 1]")
        if not 0 < self.serving_fraction <= 1:
            raise ValueError("serving_fraction must be in (0, 1]")
        if not 0 <= self.dirty_fraction <= 1:
            raise ValueError("dirty_fraction must be in [0, 1]")
        if self.demand_bps <= 0 or self.gather_bps < 0:
            raise ValueError("bad hydration bandwidth")


@dataclass
class CloneReplica:
    """One forked replica and everything the manager tracks for it."""

    name: str
    host: str
    image: CloneImage
    overlay: object
    fetcher: ReplicaFetcher
    report: CloneReport = field(repr=False)


class CloneManager:
    """Clone/fork provisioning service over one wired world."""

    def __init__(self, world: "World",
                 config: Optional[CloneConfig] = None):
        if world.vmd is None:
            raise RuntimeError("clone provisioning requires a VMD")
        self.world = world
        self.config = config or CloneConfig()
        self.tracer = world.tracer
        #: the live image per parent VM name (latest capture wins)
        self.images: dict[str, CloneImage] = {}
        #: every image ever captured (byte accounting survives drops)
        self._all_images: list[CloneImage] = []
        self._image_seq = 0
        self.replicas: dict[str, CloneReplica] = {}
        #: every replica's report, kept across teardown
        self.reports: list[CloneReport] = []
        #: deterministic, append-only clone event log
        self.log: list[str] = []
        self.counters = {
            "snapshots": 0, "forks": 0, "serving": 0,
            "failed": 0, "released": 0,
        }
        #: hooks for the fleet/scenario layer
        self.on_serving = None
        self.on_replica_failed = None
        if world.faults is not None:
            world.faults.subscribe(self._on_fault)

    # -- image capture --------------------------------------------------------
    def image_for(self, parent: str) -> Optional[CloneImage]:
        """The usable live image of ``parent`` (None if absent/failed)."""
        img = self.images.get(parent)
        if img is None or img.failed or img.data_lost:
            return None
        return img

    def snapshot(self, parent: str, instant: bool = False) -> CloneImage:
        """Capture ``parent``'s allocated pages into a fresh shared
        namespace; idempotent while a usable image exists."""
        existing = self.image_for(parent)
        if existing is not None:
            return existing
        world = self.world
        vm = world.vms[parent]
        if vm.state is VmState.TERMINATED or vm.migrating:
            raise RuntimeError(f"cannot snapshot {parent}: unavailable")
        binding = world.manager_of(vm.host).binding(parent)
        name = f"img.{parent}.{self._image_seq}"
        self._image_seq += 1
        ns = world.vmd.create_namespace(
            name, replication=self.config.replication)
        template = binding.pages.present | binding.pages.swapped
        image = CloneImage(name, parent, vm.host, ns, template,
                           binding.pages.page_size)
        self.images[parent] = image
        self._all_images.append(image)
        self.counters["snapshots"] += 1
        self.log.append(f"snapshot {name} of {parent} "
                        f"({'instant' if instant else 'stream'}) "
                        f"@{world.now:g}s")
        if instant:
            placed = ns.preload(image.template_bytes)
            if placed < image.template_bytes - 1e-6:
                raise RuntimeError("VMD servers too small for image")
            image.staged[:] = image.template
            if self.tracer.enabled:
                self.tracer.instant(
                    "clone", "snapshot-instant", cat="clone",
                    args={"image": name, "parent": parent,
                          "bytes": image.template_bytes})
        else:
            snap = ImageSnapshotter(
                image, vm, binding, world.engine,
                chunk_bytes=self.config.snapshot_chunk_bytes,
                priority=self.config.snapshot_priority,
                tracer=self.tracer, on_finish=self._snapshot_finished)
            image.snapshotter = snap
            world.engine.add_participant(snap, order=WORKLOAD_ORDER)
        return image

    def _snapshot_finished(self, image: CloneImage) -> None:
        if not image.failed:
            self.log.append(f"image-ready {image.name} "
                            f"@{self.world.now:g}s")
            return
        self.log.append(f"image-failed {image.name} @{self.world.now:g}s")
        self._fail_dependents(image, "snapshot-aborted")
        if self.images.get(image.parent) is image:
            self.drop_image(image.parent)

    def _fail_dependents(self, image: CloneImage, reason: str) -> None:
        """Fail every replica still hydrating from ``image`` (an aborted
        snapshot can never complete their template). Fully hydrated
        siblings keep running — they owe the image nothing."""
        for name in sorted(self.replicas):
            rep = self.replicas[name]
            if rep.image is not image:
                continue
            pages = rep.fetcher.binding.pages
            if rep.fetcher.umem is not None \
                    or pages.swapped_pages() > 0:
                self._fail_replica(name, reason)

    def drop_image(self, parent: str) -> None:
        """Retire a parent's live image: no new forks from it; its bytes
        free once the last replica releases its reference."""
        image = self.images.pop(parent, None)
        if image is None:
            return
        if image.snapshotter is not None:
            image.snapshotter.abort("image-dropped")
        self.world.vmd.release_namespace(image.namespace.name)

    def on_parent_departed(self, name: str) -> None:
        """A completed image outlives its parent — that is the point of
        staging it on VMD. Only an unfinished stream dies with it."""
        image = self.images.get(name)
        if image is not None and image.snapshotter is not None:
            image.snapshotter.abort("parent-departed")

    # -- fork / teardown ------------------------------------------------------
    def owns(self, name: str) -> bool:
        return name in self.replicas

    def boot_replica(self, name: str, host_name: str, image: CloneImage,
                     reservation_bytes: Optional[float] = None
                     ) -> CloneReplica:
        """Fork a replica of ``image`` onto ``host_name``: the VM boots
        with zero resident pages and hydrates post-copy style."""
        if name in self.replicas:
            raise ValueError(f"replica exists: {name}")
        if image.failed or image.data_lost:
            raise RuntimeError(f"image unusable: {image.name}")
        world = self.world
        cfg = self.config
        page = image.page_size
        owed = image.owed()
        parent_vm = world.vms.get(image.parent)
        parent_alive = (parent_vm is not None
                        and parent_vm.state is not VmState.TERMINATED)
        if np.any(owed) and not parent_alive:
            raise RuntimeError(
                f"image {image.name} incomplete and parent gone")
        vm = world.add_vm(name, float(image.n_pages) * page, host_name,
                          page_size=page)
        world.vmd.retain_namespace(image.namespace.name)
        overlay = world.vmd.create_namespace(f"{name}.cow",
                                             replication=cfg.replication)
        backend = CowBackend(image.namespace, overlay)
        reservation = (vm.memory_bytes if reservation_bytes is None
                       else reservation_bytes)
        binding = world.hosts[host_name].place_vm(vm, reservation, backend)
        staged = image.staged & image.template
        vm.pages.swapped[staged] = True
        vm.pages.swap_clean[staged] = True
        report = CloneReport(vm_name=name, parent=image.parent,
                             fork_time=world.now)
        self.reports.append(report)
        umem = None
        if np.any(owed):
            parent_binding = world.manager_of(
                parent_vm.host).binding(image.parent)
            umem = UmemFaultHandler(
                world.network, parent_vm.host, host_name, name,
                PendingScan(owed), parent_binding.pages,
                parent_binding.backend, report,
                priority=cfg.demand_priority, tracer=self.tracer,
                track=f"vm:{name}", metrics=world.metrics)
        fetcher = ReplicaFetcher(
            world.sim, world.manager_of(host_name), vm, binding, image,
            overlay, report, cfg, world.engine, umem=umem,
            tracer=self.tracer, on_serving=self._note_serving,
            on_done=self._note_done)
        world.engine.add_participant(fetcher, order=WORKLOAD_ORDER)
        replica = CloneReplica(name=name, host=host_name, image=image,
                               overlay=overlay, fetcher=fetcher,
                               report=report)
        self.replicas[name] = replica
        self.counters["forks"] += 1
        if world.metrics.enabled:
            world.metrics.inc("clone.forks")
        self.log.append(f"fork {name} <- {image.parent} on {host_name} "
                        f"@{world.now:g}s")
        if self.tracer.enabled:
            self.tracer.instant(
                "clone", "fork", cat="clone",
                args={"vm": name, "parent": image.parent,
                      "host": host_name,
                      "owed_pages": int(np.count_nonzero(owed))})
        return replica

    def teardown(self, name: str) -> None:
        """Release ``name``'s clone resources (fetcher, umem, overlay,
        image reference). The caller must already have unregistered the
        VM from its host (that closes the CoW binding queues)."""
        replica = self.replicas.pop(name, None)
        if replica is None:
            raise KeyError(f"not a clone replica: {name}")
        replica.fetcher.close()
        self.world.vmd.release_namespace(replica.overlay.name)
        self.world.vmd.release_namespace(replica.image.namespace.name)
        self.counters["released"] += 1
        self.log.append(f"release {name} @{self.world.now:g}s")

    def release_replica(self, name: str) -> None:
        """Full departure of a directly managed replica: terminate the
        VM, unbind it from its host, and tear down clone resources (the
        fleet scheduler's depart path does the VM half itself)."""
        replica = self.replicas[name]
        world = self.world
        vm = world.vms.get(name)
        if vm is not None:
            if vm.state is not VmState.TERMINATED:
                world.terminate_vm(name)
            world.hosts[replica.host].release_vm(name)
            del world.vms[name]
        self.teardown(name)

    # -- accounting -----------------------------------------------------------
    def provision_bytes(self) -> float:
        """All bytes the clone substrate moved: snapshot scatter plus
        every replica's demand/gather/CoW traffic (live and departed)."""
        return (sum(i.scatter_bytes for i in self._all_images)
                + sum(r.total_bytes for r in self.reports))

    def _note_serving(self, name: str) -> None:
        self.counters["serving"] += 1
        metrics = self.world.metrics
        if metrics.enabled:
            metrics.inc("clone.serving")
            report = self.replicas[name].report
            if report.time_to_serving is not None:
                metrics.histogram("clone.time_to_serving_s").observe(
                    report.time_to_serving)
            if report.demand_bytes > 0:
                metrics.histogram("clone.demand_bytes").observe(
                    report.demand_bytes)
        self.log.append(f"serve {name} @{self.world.now:g}s")
        if self.on_serving is not None:
            self.on_serving(name)

    def _note_done(self, name: str) -> None:
        self.log.append(f"hydrated {name} @{self.world.now:g}s")

    def describe(self) -> str:
        c = self.counters
        return (f"clone: {c['snapshots']} snapshots, {c['forks']} forks, "
                f"{c['serving']} serving, {c['failed']} failed, "
                f"{c['released']} released")

    # -- fault reactions ------------------------------------------------------
    def _on_fault(self, spec, phase: str) -> None:
        if phase != "inject":
            return
        dead = (set(hosts_hit(spec, self.world.topology))
                if spec.kind in HOST_LOSS else set())
        if dead:
            for parent in sorted(self.images):
                image = self.images[parent]
                if image.snapshotter is not None \
                        and image.parent_host in dead:
                    image.snapshotter.abort("parent-host-crashed")
            for name in sorted(self.replicas):
                if self.replicas[name].host in dead:
                    self._fail_replica(name, spec.kind.value)
        if spec.kind in (FaultKind.VMD_CRASH, FaultKind.RACK_CRASH,
                         FaultKind.POD_CRASH) \
                and getattr(spec, "lose_contents", False):
            self._reconcile_data_loss()

    def _reconcile_data_loss(self) -> None:
        """A content-losing donor crash happened: the VMD cluster already
        reconciled every namespace. Replicated images re-protect in the
        background; single-copy losses fail exactly the replicas that
        still needed the lost namespace."""
        for parent in sorted(self.images):
            image = self.images[parent]
            if image.namespace.data_lost:
                for name in sorted(self.replicas):
                    rep = self.replicas[name]
                    if rep.image is not image:
                        continue
                    pages = rep.fetcher.binding.pages
                    if rep.fetcher.umem is not None \
                            or pages.swapped_pages() > 0:
                        self._fail_replica(name, "image-data-lost")
                if self.images.get(parent) is image:
                    self.drop_image(parent)
            elif image.namespace.repair_pending_bytes > 0 \
                    and self.tracer.enabled:
                self.tracer.instant(
                    "clone", "reprotect", cat="clone",
                    args={"image": image.name,
                          "pending_bytes":
                              float(image.namespace.repair_pending_bytes)})
        for name in sorted(self.replicas):
            if self.replicas[name].overlay.data_lost:
                self._fail_replica(name, "overlay-data-lost")

    def _fail_replica(self, name: str, reason: str) -> None:
        replica = self.replicas.get(name)
        if replica is None:
            return
        replica.report.failed = True
        replica.report.failure_reason = reason
        world = self.world
        vm = world.vms.get(name)
        if vm is not None and vm.state is not VmState.TERMINATED:
            world.terminate_vm(name)
        world.hosts[replica.host].release_vm(name)
        self.teardown(name)
        self.counters["failed"] += 1
        self.log.append(f"lost {name}: {reason} @{world.now:g}s")
        if self.tracer.enabled:
            self.tracer.instant(
                "clone", "replica-lost", cat="clone",
                args={"vm": name, "reason": reason})
        if self.on_replica_failed is not None:
            self.on_replica_failed(name, reason)
