"""Scale harness: synthesize N-rack datacenters and measure the fabric.

The fabric bench builds two identical networks — one per arbiter
implementation — and replays the same deterministic churn trace through
both: migration flows that open, live for a while, and close; paired
priority-0 demand-paging flows; mostly-idle per-host application
channels that burst occasionally; rack partitions that split and heal;
NICs that degrade and recover. Every decision comes from one seeded
generator per driver, so two drivers with the same seed produce the same
flow population and demand sequence tick for tick — which is what makes
the grant-agreement check meaningful and the timing comparison fair.

Timing passes run without recording; a separate verification pass
records per-flow grants on both networks. A tick passes when the default
arm's grants satisfy the max-min bottleneck certificate
(:func:`repro.net.maxmin_violations`) and every grant agrees with the
reference's within rel 1e-9 (abs 1e-6 B) — the two arms solve the same
problem by different float paths, so last-bit equality is not the
contract.
"""

from __future__ import annotations

import json
import math
import time
from dataclasses import asdict, dataclass

import numpy as np

from repro.net.certificate import ABS_TOL, REL_TOL, maxmin_violations
from repro.net.network import Network
from repro.sched.topology import Topology

__all__ = ["ScaleConfig", "cluster_bench", "commit_share", "fabric_bench",
           "run_scale"]


@dataclass(frozen=True)
class ScaleConfig:
    """The 200-host default; ``quick()`` shrinks it for CI smoke runs,
    ``tier3()`` is the 1000-host three-tier datapoint."""

    n_racks: int = 10
    hosts_per_rack: int = 20
    #: topology tiers: 1 = flat racks (+ optional core), 3 = a nested
    #: AZ → pod → rack fabric built by :meth:`Topology.tiered` with
    #: per-tier oversubscription tapering
    tiers: int = 1
    n_azs: int = 2
    pods_per_az: int = 5
    racks_per_pod: int = 10
    oversubscription: float = 2.0
    #: VMD-style fan-in lanes per host: each host opens this many
    #: parallel priority-1 flows to one randomly chosen server host.
    #: Lanes of one (host, server) pair share the identical tier path,
    #: so whole groups of flows contend for one bottleneck. 0 disables
    #: (and keeps the churn trace byte-identical to a lane-free fabric).
    fanin_lanes: int = 0
    #: per-tick probability each fan-in lane declares demand
    fanin_active_prob: float = 0.5
    #: concurrently live migration flow slots (the "100-flow" scenario)
    n_migrations: int = 100
    #: fraction of migration slots that carry a paired priority-0
    #: demand-paging flow in the reverse direction
    paging_fraction: float = 0.3
    #: mostly-idle application channels per host (the idle population is
    #: the point: the reference arbiter scans every open flow per tick,
    #: the fast path's registry never visits a flow that stays quiet)
    idle_channels_per_host: int = 4
    #: per-tick probability an idle channel bursts for one tick
    app_burst_prob: float = 0.06
    #: migration slot lifetime bounds (ticks) before churn reopens it
    migration_ticks_min: int = 20
    migration_ticks_max: int = 120
    #: a partition isolating one rack toggles every this many ticks
    partition_every: int = 97
    #: a random NIC degrades/restores every this many ticks
    degrade_every: int = 41
    ticks: int = 400
    dt: float = 0.1
    seed: int = 0
    nic_bps: float = 117e6
    uplink_bps: float = 8 * 117e6
    #: simulated seconds for the end-to-end cluster bench
    cluster_sim_s: float = 20.0
    cluster_racks: int = 6
    cluster_hosts_per_rack: int = 8
    #: nest the cluster bench's racks into pods/AZs (0 = flat, the
    #: historical shape); forwarded to the datacenter scenario
    cluster_racks_per_pod: int = 0
    cluster_pods_per_az: int = 0

    @staticmethod
    def quick(seed: int = 0) -> "ScaleConfig":
        """CI-sized: the same structure at a fraction of the work."""
        return ScaleConfig(
            n_racks=4, hosts_per_rack=8, n_migrations=24,
            idle_channels_per_host=2, ticks=120, seed=seed,
            cluster_sim_s=8.0, cluster_racks=3, cluster_hosts_per_rack=4)

    @staticmethod
    def tier3(seed: int = 0, quick: bool = False) -> "ScaleConfig":
        """The 1000-host datapoint: 2 AZs × 5 pods × 10 racks × 10
        hosts behind 2:1 oversubscribed tier uplinks, with VMD-style
        fan-in lanes so large same-path flow populations contend for
        shared bottlenecks. ``quick`` keeps all 1000 hosts but
        cuts ticks/lanes to fit the CI budget (the reference arbiter is
        what makes this bench expensive)."""
        cluster = dict(cluster_sim_s=6.0, cluster_racks=12,
                       cluster_hosts_per_rack=8, cluster_racks_per_pod=2,
                       cluster_pods_per_az=3)
        if quick:
            return ScaleConfig(
                tiers=3, n_azs=2, pods_per_az=5, racks_per_pod=10,
                hosts_per_rack=10, n_migrations=100,
                idle_channels_per_host=1, fanin_lanes=4,
                ticks=30, seed=seed, **cluster)
        return ScaleConfig(
            tiers=3, n_azs=2, pods_per_az=5, racks_per_pod=10,
            hosts_per_rack=10, n_migrations=200,
            idle_channels_per_host=1, fanin_lanes=6,
            ticks=100, seed=seed, **cluster)

    @property
    def total_racks(self) -> int:
        if self.tiers == 3:
            return self.n_azs * self.pods_per_az * self.racks_per_pod
        return self.n_racks

    @property
    def n_hosts(self) -> int:
        return self.total_racks * self.hosts_per_rack


class _FabricDriver:
    """One network + the deterministic churn replayed onto it."""

    def __init__(self, cfg: ScaleConfig, fast_path: bool):
        self.cfg = cfg
        self.rng = np.random.default_rng(cfg.seed)
        self.net = Network(default_bandwidth_bps=cfg.nic_bps,
                           latency_s=2e-4, fast_path=fast_path)
        if cfg.tiers == 3:
            self.topo = Topology.tiered(
                cfg.n_azs, cfg.pods_per_az, cfg.racks_per_pod,
                uplink_bps=cfg.uplink_bps,
                oversubscription=cfg.oversubscription)
            rack_names = list(self.topo.racks)
        else:
            self.topo = Topology(uplink_bps=cfg.uplink_bps)
            rack_names = [f"r{r}" for r in range(cfg.n_racks)]
            for rack in rack_names:
                self.topo.add_rack(rack)
        self.hosts: list[str] = []
        self.rack_hosts: list[list[str]] = []
        for rack in rack_names:
            members = []
            for h in range(cfg.hosts_per_rack):
                name = f"{rack}h{h}"
                self.net.add_host(name)
                self.topo.assign(name, rack)
                members.append(name)
                self.hosts.append(name)
            self.rack_hosts.append(members)
        self.net.set_topology(self.topo)

        # Migration slots: flow + optional reverse paging flow + lifetime.
        self.mig_flows = []
        self.paging_flows = []
        self.mig_expiry = np.zeros(cfg.n_migrations, dtype=np.int64)
        for slot in range(cfg.n_migrations):
            self._reopen_slot(slot, tick=0)
        # Application channels: long-lived, mostly idle.
        self.app_flows = []
        for name in self.hosts:
            for k in range(cfg.idle_channels_per_host):
                dst = self._pick_other(name)
                prio = 1 if k % 2 == 0 else 2
                self.app_flows.append(self.net.open_flow(
                    name, dst, priority=prio, name=f"app:{name}:{k}"))
        # VMD-style fan-in: each host streams to one server host over
        # ``fanin_lanes`` parallel lanes sharing one tier path.
        self.fanin_flows = []
        if cfg.fanin_lanes:
            for name in self.hosts:
                server = self._pick_other(name)
                for k in range(cfg.fanin_lanes):
                    self.fanin_flows.append(self.net.open_flow(
                        name, server, priority=1,
                        name=f"vmd:{name}->{server}:{k}"))
        self._partitioned = False
        self._degraded = None
        self.peak_active = 0
        self.total_opened = (cfg.n_migrations + len(self.app_flows)
                             + len(self.fanin_flows))

    # -- churn ---------------------------------------------------------------
    def _pick_other(self, host: str) -> str:
        while True:
            other = self.hosts[int(self.rng.integers(len(self.hosts)))]
            if other != host:
                return other

    def _reopen_slot(self, slot: int, tick: int) -> None:
        cfg = self.cfg
        src = self.hosts[int(self.rng.integers(len(self.hosts)))]
        dst = self._pick_other(src)
        flow = self.net.open_flow(src, dst, priority=1,
                                  name=f"mig:{slot}")
        paging = None
        if self.rng.random() < cfg.paging_fraction:
            paging = self.net.open_flow(dst, src, priority=0,
                                        name=f"page:{slot}")
        if slot < len(self.mig_flows):
            self.mig_flows[slot] = flow
            self.paging_flows[slot] = paging
        else:
            self.mig_flows.append(flow)
            self.paging_flows.append(paging)
        self.mig_expiry[slot] = tick + int(self.rng.integers(
            cfg.migration_ticks_min, cfg.migration_ticks_max))

    def _churn(self, tick: int) -> None:
        for slot in np.nonzero(self.mig_expiry <= tick)[0]:
            self.mig_flows[slot].close()
            if self.paging_flows[slot] is not None:
                self.paging_flows[slot].close()
            self._reopen_slot(int(slot), tick)
            self.total_opened += 1

    def _faults(self, tick: int) -> None:
        cfg = self.cfg
        if cfg.partition_every and tick and tick % cfg.partition_every == 0:
            if self._partitioned:
                self.net.clear_partition()
                self._partitioned = False
            else:
                rack = int(self.rng.integers(len(self.rack_hosts)))
                self.net.set_partition([self.rack_hosts[rack]])
                self._partitioned = True
        if cfg.degrade_every and tick and tick % cfg.degrade_every == 0:
            if self._degraded is not None:
                self._degraded.restore()
                self._degraded = None
            else:
                nic = self.net.nic(
                    self.hosts[int(self.rng.integers(len(self.hosts)))])
                link = nic.tx if self.rng.random() < 0.5 else nic.rx
                link.degrade(float(self.rng.uniform(0.2, 0.8)))
                self._degraded = link

    # -- demands -------------------------------------------------------------
    def _declare(self, tick: int) -> int:
        cfg = self.cfg
        dt = cfg.dt
        active = 0
        mig_scale = self.rng.uniform(0.2, 1.0, size=cfg.n_migrations)
        for slot, flow in enumerate(self.mig_flows):
            flow.demand = float(mig_scale[slot]) * cfg.nic_bps * dt
            active += 1
            paging = self.paging_flows[slot]
            if paging is not None:
                paging.demand = 0.05 * cfg.nic_bps * dt
                active += 1
        bursts = self.rng.random(len(self.app_flows)) < cfg.app_burst_prob
        sizes = self.rng.uniform(0.05, 0.4, size=len(self.app_flows))
        for i in np.nonzero(bursts)[0]:
            self.app_flows[i].demand = float(sizes[i]) * cfg.nic_bps * dt
            active += 1
        if self.fanin_flows:
            on = self.rng.random(len(self.fanin_flows)) \
                < cfg.fanin_active_prob
            scale = self.rng.uniform(0.02, 0.2, size=len(self.fanin_flows))
            for i in np.nonzero(on)[0]:
                self.fanin_flows[i].demand = \
                    float(scale[i]) * cfg.nic_bps * dt
                active += 1
        return active

    # -- execution -----------------------------------------------------------
    def run(self, record: bool = False) -> dict:
        """Replay the trace. ``record`` keeps every tick's grants and
        checks each tick against the max-min certificate (untimed)."""
        cfg = self.cfg
        grants: list[list[float]] = []
        uncertified: list[int] = []
        arb_s = 0.0
        t0 = time.perf_counter()
        for tick in range(cfg.ticks):
            self._churn(tick)
            self._faults(tick)
            n_active = self._declare(tick)
            self.peak_active = max(self.peak_active, n_active)
            if record:
                demands = [(f, f.demand) for f in self.net.flows]
            a0 = time.perf_counter()
            self.net.arbitrate(cfg.dt)
            arb_s += time.perf_counter() - a0
            if record:
                if maxmin_violations(self.net, demands, cfg.dt):
                    uncertified.append(tick)
                row = [f.granted for f in self.mig_flows]
                row += [0.0 if f is None else f.granted
                        for f in self.paging_flows]
                row += [f.granted for f in self.app_flows]
                row += [f.granted for f in self.fanin_flows]
                grants.append(row)
        wall = time.perf_counter() - t0
        return {
            "wall_s": wall,
            "ticks_per_s": cfg.ticks / wall if wall > 0 else float("inf"),
            "arbiter_us_per_tick": arb_s / cfg.ticks * 1e6,
            "grants": grants,
            "uncertified_ticks": uncertified,
            "peak_active_flows": self.peak_active,
            "open_flows": len(self.net.flows),
            "flows_opened": self.total_opened,
        }


def _ticks_agree(a: list[float], b: list[float]) -> bool:
    return all(math.isclose(x, y, rel_tol=REL_TOL, abs_tol=ABS_TOL)
               for x, y in zip(a, b))


def fabric_bench(cfg: ScaleConfig, check_grants: bool = True,
                 repeats: int = 2) -> dict:
    """Time both arbiters on the same churn trace; verify grants.

    The two arms are the default path and the dict-based reference
    oracle. Each is timed ``repeats`` times and the best pass is kept —
    the trace is deterministic, so repeats only strip scheduler noise.
    With ``check_grants``, a tick counts as a mismatch unless the
    default arm passes the max-min certificate and agrees with the
    reference within rel 1e-9.
    """
    def best(fast_path: bool) -> dict:
        return min((_FabricDriver(cfg, fast_path=fast_path).run()
                    for _ in range(repeats)),
                   key=lambda r: r["wall_s"])

    timed_fast = best(fast_path=True)
    timed_ref = best(fast_path=False)
    keys = ("wall_s", "ticks_per_s", "arbiter_us_per_tick")
    result = {
        "hosts": cfg.n_hosts,
        "racks": cfg.total_racks,
        "tiers": cfg.tiers,
        "fanin_lanes": cfg.fanin_lanes,
        "migration_slots": cfg.n_migrations,
        "ticks": cfg.ticks,
        "peak_active_flows": timed_fast["peak_active_flows"],
        "flows_opened": timed_fast["flows_opened"],
        "fast": {k: timed_fast[k] for k in keys},
        "reference": {k: timed_ref[k] for k in keys},
    }
    result["speedup_ticks_per_s"] = (
        result["fast"]["ticks_per_s"] / result["reference"]["ticks_per_s"])
    result["speedup_arbiter"] = (
        result["reference"]["arbiter_us_per_tick"]
        / result["fast"]["arbiter_us_per_tick"])
    if check_grants:
        rec_fast = _FabricDriver(cfg, fast_path=True).run(record=True)
        rec_ref = _FabricDriver(cfg, fast_path=False).run(record=True)
        uncertified = set(rec_fast["uncertified_ticks"])
        mismatches = sum(
            1 for tick, (a, b) in enumerate(zip(rec_fast["grants"],
                                                rec_ref["grants"]))
            if tick in uncertified or not _ticks_agree(a, b))
        result["grants_match"] = mismatches == 0
        result["grant_ticks_compared"] = len(rec_fast["grants"])
        result["grant_mismatch_ticks"] = mismatches
    return result


def cluster_bench(cfg: ScaleConfig, profile: bool = True,
                  tracer=None) -> dict:
    """End-to-end ticks/s of the scaled datacenter rebalance scenario.

    ``profile`` attaches a :class:`repro.obs.SelfProfiler` to the tick
    engine and the planner, so the result attributes wall-clock to
    subsystems (network arbitration, device arbitration, planner pump,
    commit phase); ``tracer`` optionally records the run's sim-clock
    trace as well.
    """
    from repro.experiments.datacenter import (
        DatacenterConfig, honeypot_schedule, make_datacenter)
    from repro.obs.profiler import SelfProfiler
    dc_cfg = DatacenterConfig(
        n_racks=cfg.cluster_racks,
        hosts_per_rack=cfg.cluster_hosts_per_rack,
        racks_per_pod=cfg.cluster_racks_per_pod,
        pods_per_az=cfg.cluster_pods_per_az,
        seed=cfg.seed)
    dc = make_datacenter(honeypot_schedule(), dc_cfg, tracer=tracer)
    prof = None
    if profile:
        prof = SelfProfiler()
        dc.world.engine.profiler = prof
        planner = dc.control.planner
        planner.pump = prof.wrap(planner.pump, "planner.pump")
    t0 = time.perf_counter()
    dc.run(until=cfg.cluster_sim_s)
    wall = time.perf_counter() - t0
    ticks = dc.world.engine.tick_index
    out = {
        "hosts": dc_cfg.n_racks * dc_cfg.hosts_per_rack,
        "vms": len(dc.world.vms),
        "sim_s": cfg.cluster_sim_s,
        "wall_s": wall,
        "ticks": ticks,
        "ticks_per_s": ticks / wall if wall > 0 else float("inf"),
        "migration_attempts": len(dc.control.supervisor.attempts),
    }
    if prof is not None:
        out["profile"] = prof.report(wall_s=wall)
    return out


def run_scale(cfg: ScaleConfig, check_grants: bool = True,
              with_cluster: bool = True, profile: bool = True,
              tracer=None, repeats: int = 2) -> dict:
    """The full scale probe: fabric micro-bench, cluster macro-bench.
    ``repeats=1`` halves the timing cost of configs where the reference
    arbiter dominates (the tier-3 datapoint)."""
    out = {
        "config": asdict(cfg),
        "fabric": fabric_bench(cfg, check_grants=check_grants,
                               repeats=repeats),
    }
    if with_cluster:
        out["cluster"] = cluster_bench(cfg, profile=profile, tracer=tracer)
    return out


def check_regression(current: dict, baseline: dict,
                     max_regression: float = 2.0) -> list[str]:
    """Compare a fresh run against a checked-in baseline.

    Returns human-readable failures for any tracked throughput metric
    that regressed by more than ``max_regression``× (wall-clock noise and
    runner variance is why the gate is that loose).
    """
    failures: list[str] = []

    def gate(label: str, cur: float, base: float) -> None:
        if base > 0 and cur < base / max_regression:
            failures.append(
                f"{label}: {cur:,.0f} vs baseline {base:,.0f} "
                f"(allowed floor {base / max_regression:,.0f})")

    gate("fabric fast ticks/s",
         current["fabric"]["fast"]["ticks_per_s"],
         baseline["fabric"]["fast"]["ticks_per_s"])
    if "cluster" in current and "cluster" in baseline:
        gate("cluster ticks/s",
             current["cluster"]["ticks_per_s"],
             baseline["cluster"]["ticks_per_s"])
    if not current["fabric"].get("grants_match", True):
        failures.append("default-path grants broke the max-min certificate "
                        "or diverged from the reference")
    return failures


def commit_share(res: dict) -> float | None:
    """The cluster bench's ``tick.commit`` wall-clock share, if profiled."""
    sections = (res.get("cluster", {}).get("profile", {})
                .get("sections", {}))
    sec = sections.get("tick.commit")
    return None if sec is None else float(sec["share"])


def format_summary(res: dict) -> list[str]:
    """Stable text rendering for the CLI and the bench log."""
    fab = res["fabric"]
    tier_note = (f", tier-{fab['tiers']}" if fab.get("tiers", 1) != 1
                 else "")
    lines = [
        f"fabric: {fab['hosts']} hosts / {fab['racks']} racks{tier_note}, "
        f"{fab['migration_slots']} migration slots, {fab['ticks']} ticks "
        f"(peak {fab['peak_active_flows']} active flows, "
        f"{fab['flows_opened']} opened)",
        f"  fast      {fab['fast']['ticks_per_s']:10,.0f} ticks/s   "
        f"{fab['fast']['arbiter_us_per_tick']:8,.0f} us/tick",
        f"  reference {fab['reference']['ticks_per_s']:10,.0f} ticks/s   "
        f"{fab['reference']['arbiter_us_per_tick']:8,.0f} us/tick",
        f"  speedup   {fab['speedup_ticks_per_s']:.1f}x ticks/s, "
        f"{fab['speedup_arbiter']:.1f}x arbiter",
    ]
    if "grants_match" in fab:
        lines.append(
            f"  grants    {'agree' if fab['grants_match'] else 'DIVERGED'}"
            f" over {fab['grant_ticks_compared']} ticks")
    if "cluster" in res:
        clu = res["cluster"]
        lines.append(
            f"cluster: {clu['hosts']} hosts / {clu['vms']} VMs, "
            f"{clu['sim_s']:g} sim-s in {clu['wall_s']:.2f} s wall "
            f"({clu['ticks_per_s']:,.0f} ticks/s, "
            f"{clu['migration_attempts']} migration attempts)")
        prof = clu.get("profile")
        if prof:
            top = sorted(prof["sections"].items(),
                         key=lambda kv: -kv[1]["s"])[:4]
            lines.append("  profile  " + ", ".join(
                f"{name} {sec['share'] * 100:.0f}%" for name, sec in top))
    return lines


def write_json(res: dict, path: str) -> None:
    with open(path, "w", encoding="utf-8") as fh:
        json.dump(res, fh, indent=2, sort_keys=True)
        fh.write("\n")


def load_json(path: str) -> dict:
    with open(path, encoding="utf-8") as fh:
        return json.load(fh)
