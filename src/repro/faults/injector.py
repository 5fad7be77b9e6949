"""The fault injector: applies a schedule to a wired World.

Injection and reversion are plain simulator callbacks at the scheduled
times, so the fault timeline is part of the deterministic event order —
two runs with the same seed and schedule are tick-for-tick identical.

The injector only touches *physical* state (links, servers, devices, VM
liveness). Migration-level consequences — aborting a transfer whose
destination died, failing a VM caught in the split-state window — are the
recovery layer's job: supervisors and managers :meth:`subscribe` and
react to the ``(spec, phase)`` notifications.
"""

from __future__ import annotations

from typing import TYPE_CHECKING, Callable, Optional

from repro.faults.log import FaultLog
from repro.faults.spec import FaultKind, FaultSchedule, FaultSpec
from repro.vm.vm import VmState

if TYPE_CHECKING:  # pragma: no cover - typing only
    from repro.cluster.world import World

__all__ = ["FaultInjector", "HOST_LOSS", "hosts_hit"]

#: subscriber phase strings
INJECT, REVERT = "inject", "revert"

#: faults that take whole hosts down, with the VMs they run
HOST_LOSS = (FaultKind.HOST_CRASH, FaultKind.RACK_CRASH, FaultKind.POD_CRASH)


def hosts_hit(spec: FaultSpec, topology) -> list[str]:
    """The blast radius of a fault: the hosts it takes down or cuts off,
    in topology order. A host fault (or a VMD donor crash) hits its
    target; a partition hits its members; a rack, pod or AZ fault hits
    every host of the domain (none without a ``topology``); an SSD
    fault hits no host."""
    kind = spec.kind
    if kind is FaultKind.RACK_CRASH:
        return [] if topology is None else topology.hosts_in(spec.target)
    if kind is FaultKind.POD_CRASH:
        return ([] if topology is None
                else topology.hosts_in_pod(spec.target))
    if kind is FaultKind.AZ_PARTITION:
        return ([] if topology is None
                else topology.hosts_in_az(spec.target))
    if kind is FaultKind.PARTITION:
        return FaultInjector._partition_hosts(spec.target)
    if kind is FaultKind.SSD_DEGRADED:
        return []
    return [spec.target]


class FaultInjector:
    """Schedules and applies every fault in ``schedule`` against ``world``.

    Construct after the topology is wired (hosts, SSDs, VMD) — targets
    are validated eagerly so a typo fails at setup, not mid-run. Usually
    created via :meth:`repro.cluster.World.attach_faults`.
    """

    def __init__(self, world: "World", schedule: FaultSchedule,
                 log: Optional[FaultLog] = None):
        self.world = world
        self.schedule = schedule
        self.log = log if log is not None else FaultLog()
        self._subscribers: list[Callable[[FaultSpec, str], None]] = []
        #: open async fault spans for duration faults, keyed by spec
        self._fault_spans: dict[int, int] = {}
        for spec in schedule.specs:
            self._validate(spec)
            world.sim.call_at(spec.at, self._apply, spec)
            if spec.duration is not None:
                world.sim.call_at(spec.at + spec.duration,
                                  self._revert, spec)

    # -- subscription ---------------------------------------------------------
    def subscribe(self, fn: Callable[[FaultSpec, str], None]) -> None:
        """Call ``fn(spec, phase)`` after each injection/reversion, with
        ``phase`` one of ``"inject"`` / ``"revert"``. Physical effects are
        already applied when subscribers run."""
        self._subscribers.append(fn)

    def _notify(self, spec: FaultSpec, phase: str) -> None:
        for fn in list(self._subscribers):
            fn(spec, phase)

    # -- validation -----------------------------------------------------------
    def _validate(self, spec: FaultSpec) -> None:
        k = spec.kind
        if k in (FaultKind.HOST_CRASH, FaultKind.NIC_DOWN,
                 FaultKind.NIC_DEGRADED):
            if not self.world.network.has_host(spec.target):
                raise ValueError(f"fault targets unknown host: {spec.target}")
        elif k is FaultKind.PARTITION:
            for host in self._partition_hosts(spec.target):
                if not self.world.network.has_host(host):
                    raise ValueError(
                        f"partition names unknown host: {host}")
        elif k is FaultKind.VMD_CRASH:
            if self.world.vmd is None:
                raise ValueError("VMD_CRASH fault but world has no VMD")
            self.world.vmd.server_on(spec.target)  # raises if absent
        elif k is FaultKind.SSD_DEGRADED:
            if spec.target not in self.world.ssds:
                raise ValueError(f"fault targets unknown SSD: {spec.target}")
        elif k is FaultKind.RACK_CRASH:
            topo = getattr(self.world, "topology", None)
            if topo is None:
                raise ValueError("RACK_CRASH fault but world has no topology")
            if spec.target not in topo.racks:
                raise ValueError(f"fault targets unknown rack: {spec.target}")
        elif k is FaultKind.POD_CRASH:
            topo = getattr(self.world, "topology", None)
            if topo is None:
                raise ValueError("POD_CRASH fault but world has no topology")
            if spec.target not in topo.pods:
                raise ValueError(f"fault targets unknown pod: {spec.target}")
        elif k is FaultKind.AZ_PARTITION:
            topo = getattr(self.world, "topology", None)
            if topo is None:
                raise ValueError(
                    "AZ_PARTITION fault but world has no topology")
            if spec.target not in topo.azs:
                raise ValueError(f"fault targets unknown az: {spec.target}")

    @staticmethod
    def _partition_hosts(target: str) -> list[str]:
        return [h for group in target.split("|")
                for h in group.split(",") if h]

    @staticmethod
    def _partition_groups(target: str) -> list[list[str]]:
        return [[h for h in group.split(",") if h]
                for group in target.split("|") if group]

    # -- injection ------------------------------------------------------------
    def _apply(self, spec: FaultSpec) -> None:
        now = self.world.sim.now
        detail = getattr(self, f"_inject_{spec.kind.name.lower()}")(spec)
        self.log.record(now, INJECT, spec.kind.value, spec.target,
                        detail or "")
        tracer = self.world.tracer
        if tracer.enabled:
            args = {"kind": spec.kind.value, "target": spec.target}
            if detail:
                args["detail"] = detail
            if spec.duration is not None:
                # duration fault: one async span covering the outage
                self._fault_spans[id(spec)] = tracer.async_begin(
                    "faults", spec.kind.value, cat="fault", args=args)
            else:
                tracer.instant("faults", spec.kind.value, cat="fault",
                               args=args)
        self._notify(spec, INJECT)
        self._sweep_dead_vms(now)

    def _revert(self, spec: FaultSpec) -> None:
        now = self.world.sim.now
        getattr(self, f"_revert_{spec.kind.name.lower()}")(spec)
        self.log.record(now, REVERT, spec.kind.value, spec.target)
        span = self._fault_spans.pop(id(spec), 0)
        if span:
            self.world.tracer.async_end(span)
        self._notify(spec, REVERT)
        self._sweep_dead_vms(now)

    def _sweep_dead_vms(self, now: float) -> None:
        """Open outage intervals for every VM that is now terminated
        (idempotent — managers may have killed VMs during _notify)."""
        for name in sorted(self.world.vms):
            if self.world.vms[name].state is VmState.TERMINATED:
                self.log.mark_vm_unavailable(name, now)

    # -- per-kind effects -----------------------------------------------------
    def _inject_host_crash(self, spec: FaultSpec) -> str:
        nic = self.world.network.nic(spec.target)
        nic.tx.degrade(0.0)
        nic.rx.degrade(0.0)
        killed = []
        for name in sorted(self.world.vms):
            vm = self.world.vms[name]
            if vm.host == spec.target and vm.state is not VmState.TERMINATED:
                self.world.terminate_vm(name)
                killed.append(name)
        return f"killed={','.join(killed)}" if killed else ""

    def _revert_host_crash(self, spec: FaultSpec) -> None:
        # The host reboots: its NIC returns; the VMs it ran do not.
        nic = self.world.network.nic(spec.target)
        nic.tx.restore()
        nic.rx.restore()

    def _inject_nic_down(self, spec: FaultSpec) -> str:
        nic = self.world.network.nic(spec.target)
        nic.tx.degrade(0.0)
        nic.rx.degrade(0.0)
        return ""

    def _revert_nic_down(self, spec: FaultSpec) -> None:
        nic = self.world.network.nic(spec.target)
        nic.tx.restore()
        nic.rx.restore()

    def _inject_nic_degraded(self, spec: FaultSpec) -> str:
        nic = self.world.network.nic(spec.target)
        nic.tx.degrade(spec.severity)
        nic.rx.degrade(spec.severity)
        return f"factor={spec.severity:g}"

    _revert_nic_degraded = _revert_nic_down

    def _inject_partition(self, spec: FaultSpec) -> str:
        self.world.network.set_partition(self._partition_groups(spec.target))
        return ""

    def _revert_partition(self, spec: FaultSpec) -> None:
        self.world.network.clear_partition()

    def _inject_vmd_crash(self, spec: FaultSpec) -> str:
        vmd = self.world.vmd
        server = vmd.server_on(spec.target)
        vmd.fail_server(server, lose_contents=spec.lose_contents)
        # A namespace whose only copy died has lost data: its VM cannot
        # make progress anywhere (its swap pages are gone).
        doomed = []
        for name in sorted(vmd.namespaces):
            ns = vmd.namespaces[name]
            vm = self.world.vms.get(name)
            if ns.data_lost and vm is not None \
                    and vm.state is not VmState.TERMINATED:
                self.world.terminate_vm(name)
                doomed.append(name)
        detail = f"lose_contents={spec.lose_contents}"
        if doomed:
            detail += f" data_lost_vms={','.join(doomed)}"
        return detail

    def _revert_vmd_crash(self, spec: FaultSpec) -> None:
        vmd = self.world.vmd
        vmd.recover_server(vmd.server_on(spec.target))

    def _crash_hosts(self, hosts: list[str], lose_contents: bool) \
            -> tuple[list[str], list[str]]:
        """Correlated host loss: NICs dark, VMs killed, VMD donors
        failed; VMs whose only VMD copy died with the domain are doomed.
        Returns (killed VM names, failed donor hosts)."""
        killed, donors = [], []
        for host in hosts:
            if self.world.network.has_host(host):
                nic = self.world.network.nic(host)
                nic.tx.degrade(0.0)
                nic.rx.degrade(0.0)
            for name in sorted(self.world.vms):
                vm = self.world.vms[name]
                if vm.host == host and vm.state is not VmState.TERMINATED:
                    self.world.terminate_vm(name)
                    killed.append(name)
        if self.world.vmd is not None:
            hostset = set(hosts)
            for server in self.world.vmd.servers:
                if server.host in hostset and server.alive:
                    self.world.vmd.fail_server(
                        server, lose_contents=lose_contents)
                    donors.append(server.host)
            self._doom_lost_namespaces(killed)
        return killed, donors

    def _restore_hosts(self, hosts: list[str]) -> None:
        """Power restored: NICs and donors return; the VMs do not."""
        for host in hosts:
            if self.world.network.has_host(host):
                nic = self.world.network.nic(host)
                nic.tx.restore()
                nic.rx.restore()
        if self.world.vmd is not None:
            hostset = set(hosts)
            for server in self.world.vmd.servers:
                if server.host in hostset and not server.alive:
                    self.world.vmd.recover_server(server)

    @staticmethod
    def _crash_detail(killed: list[str], donors: list[str]) -> str:
        parts = []
        if killed:
            parts.append(f"killed={','.join(killed)}")
        if donors:
            parts.append(f"donors_failed={','.join(donors)}")
        return " ".join(parts)

    def _inject_rack_crash(self, spec: FaultSpec) -> str:
        """The whole rack loses power: ToR uplink dark, every host's NIC
        dark, every VM on those hosts killed, every VMD donor failed
        (``lose_contents`` decides whether donated pages are destroyed).
        """
        rack = self.world.topology.racks[spec.target]
        rack.up.degrade(0.0)
        rack.down.degrade(0.0)
        killed, donors = self._crash_hosts(rack.hosts, spec.lose_contents)
        return self._crash_detail(killed, donors)

    def _revert_rack_crash(self, spec: FaultSpec) -> None:
        # Power/ToR restored: links, NICs, and donors return; VMs do not.
        rack = self.world.topology.racks[spec.target]
        rack.up.restore()
        rack.down.restore()
        self._restore_hosts(rack.hosts)

    def _inject_pod_crash(self, spec: FaultSpec) -> str:
        """The whole pod goes down (aggregation switch death, power-bus
        trip): the pod uplink and every member rack's ToR links go dark,
        and every host in every member rack suffers the RACK_CRASH
        treatment in rack order."""
        topo = self.world.topology
        pod = topo.pods[spec.target]
        pod.up.degrade(0.0)
        pod.down.degrade(0.0)
        killed, donors = [], []
        for rname in pod.racks:
            rack = topo.racks[rname]
            rack.up.degrade(0.0)
            rack.down.degrade(0.0)
            k, d = self._crash_hosts(rack.hosts, spec.lose_contents)
            killed.extend(k)
            donors.extend(d)
        return self._crash_detail(killed, donors)

    def _revert_pod_crash(self, spec: FaultSpec) -> None:
        topo = self.world.topology
        pod = topo.pods[spec.target]
        pod.up.restore()
        pod.down.restore()
        for rname in pod.racks:
            rack = topo.racks[rname]
            rack.up.restore()
            rack.down.restore()
            self._restore_hosts(rack.hosts)

    def _inject_az_partition(self, spec: FaultSpec) -> str:
        """The AZ splits off the fabric: its spine uplink goes dark and
        its hosts can no longer exchange bytes with the rest of the
        cluster (hosts inside the AZ still talk to each other). Nothing
        dies; flows stall until the split heals. Replaces any existing
        fabric partition, like the PARTITION kind."""
        topo = self.world.topology
        az = topo.azs[spec.target]
        az.up.degrade(0.0)
        az.down.degrade(0.0)
        hosts = [h for h in topo.hosts_in_az(spec.target)
                 if self.world.network.has_host(h)]
        self.world.network.set_partition([hosts])
        return f"isolated={len(hosts)}"

    def _revert_az_partition(self, spec: FaultSpec) -> None:
        az = self.world.topology.azs[spec.target]
        az.up.restore()
        az.down.restore()
        self.world.network.clear_partition()

    def _doom_lost_namespaces(self, already_dead: list[str]) -> None:
        """Kill VMs whose only VMD copy died with the rack (their swap
        pages are unrecoverable, so they cannot run anywhere)."""
        vmd = self.world.vmd
        for name in sorted(vmd.namespaces):
            if name in already_dead:
                continue
            ns = vmd.namespaces[name]
            vm = self.world.vms.get(name)
            if ns.data_lost and vm is not None \
                    and vm.state is not VmState.TERMINATED:
                self.world.terminate_vm(name)

    def _inject_ssd_degraded(self, spec: FaultSpec) -> str:
        self.world.ssds[spec.target].degrade(spec.severity)
        return f"factor={spec.severity:g}"

    def _revert_ssd_degraded(self, spec: FaultSpec) -> None:
        self.world.ssds[spec.target].restore()
