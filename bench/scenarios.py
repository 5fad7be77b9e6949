"""The benchmark's workloads.

Each workload turns ``(params, seed)`` into calls of public ``repro``
entry points, times them through a :class:`layers.Probe`, checks the
simulated outputs and returns them for the run's ``sim_digest``.

An episode returns ``None`` when the probe only timed set-up. Otherwise
it returns a dict with ``outputs`` (plain data, hashed into the digest),
``attempted`` and ``failed`` simulated operations (migration attempts
and boot requests), ``failures`` (failed output checks) and ``info``
(numbers for the report that are not metrics).
"""

from __future__ import annotations

import hashlib
import json
from dataclasses import replace

from repro.cluster.scenarios import TestbedConfig
from repro.core import MigrationOutcome
from repro.experiments.fleet import FleetConfig, make_fleet
from repro.experiments.runners import pressure_run, single_vm_run
from repro.fleet import DemandConfig, DemandGenerator, RebalanceConfig
from repro.util import GiB, KiB, MiB

from fabric import Churn

#: the paper's Agile/YCSB results (EXPERIMENTS.md): Table II migration
#: time, Fig 6 recovery to 90 % of peak, Table I throughput over the
#: 300 s window, Table III data transferred (MB read as MiB, like the
#: measured column there)
PAPER_AGILE_KV = {"total_time_s": 108.0, "recovery_90_s": 215.0,
                  "table1_ops": 17112.0, "moved_mib": 8173.0}

#: VM size of the paper's pressure scenario (make_pressure_scenario)
PRESSURE_VM_BYTES = 10 * GiB


def sim_digest(outputs) -> str:
    """sha256 of the outputs; floats are written exactly (``repr``)."""
    text = json.dumps(outputs, sort_keys=True, separators=(",", ":"))
    return hashlib.sha256(text.encode()).hexdigest()


def _completed(report) -> bool:
    return report.outcome is MigrationOutcome.COMPLETED


def paper_kv_agile(probe, p: dict, seed: int):
    """Fig 4-6 / Tables I-III: the Agile row of the YCSB pressure run."""
    cfg = TestbedConfig(seed=seed, page_size=p["page_kib"] * KiB)
    r = probe.call(pressure_run, p["technique"], p["kind"], config=cfg)
    if r is None:
        return None
    rep = r["report"]
    measured = {"total_time_s": r["total_time"],
                "recovery_90_s": r["recovery_90"],
                "table1_ops": r["table1"],
                "moved_mib": rep.total_bytes / MiB}
    outputs = dict(measured, outcome=rep.outcome.value,
                   peak=r["peak"], thrash=r["thrash"], during=r["during"],
                   after=r["after"], series=r["avg_series"].v.tolist())
    failures = []
    if not _completed(rep):
        failures.append(f"migration ended {rep.outcome}")
    if not rep.total_bytes < PRESSURE_VM_BYTES:
        failures.append(f"moved {rep.total_bytes / GiB:.2f} GiB, not less "
                        f"than the {PRESSURE_VM_BYTES / GiB:g} GiB VM")
    info = {}
    missing = [k for k, v in measured.items() if v is None]
    if missing:
        failures.append(f"no result for {', '.join(missing)}")
    else:
        errs = [abs(measured[k] - ref) / ref
                for k, ref in PAPER_AGILE_KV.items()]
        info["paper_err_pct"] = 100.0 * sum(errs) / len(errs)
    return {"outputs": outputs, "attempted": 1,
            "failed": 0 if _completed(rep) else 1,
            "failures": failures, "info": info}


def fig7_busy(probe, p: dict, seed: int):
    """Fig 7: a busy VM of each size migrated by each technique."""
    cfg = TestbedConfig(seed=seed, page_size=p["page_kib"] * KiB)
    times: dict[tuple[str, float], float] = {}
    outputs, failed = [], 0
    for size in p["sizes_gib"]:
        for tech in p["techniques"]:
            r = probe.call(single_vm_run, tech, size, True, config=cfg)
            if r is None:
                continue
            rep = r["report"]
            failed += not _completed(rep)
            times[(tech, size)] = r["total_time"]
            outputs.append([tech, size, rep.outcome.value, r["total_time"],
                            r["total_gib"], r["downtime"], r["rounds"],
                            r["resident_gib"]])
    if probe.setup_only:
        return None
    failures = [f"{tech} at {size} GiB ended {outcome}"
                for tech, size, outcome, *_ in outputs
                if outcome != MigrationOutcome.COMPLETED.value]
    if not failures:
        small, big = sorted(p["sizes_gib"])[-2:]
        for size in (small, big):
            for base in ("pre-copy", "post-copy"):
                if not times[("agile", size)] < times[(base, size)]:
                    failures.append(f"agile not faster than {base} at "
                                    f"{size} GiB")
        flat = times[("agile", big)] / times[("agile", small)] - 1.0
        if abs(flat) > 0.10:
            failures.append(f"agile time changes {100 * flat:+.1f}% from "
                            f"{small} to {big} GiB (limit 10%)")
    return {"outputs": outputs, "attempted": len(outputs), "failed": failed,
            "failures": failures, "info": {}}


def fleet_400(probe, p: dict, seed: int):
    """Tenant churn over a 400-host cluster under the fleet services.

    The arrival stream is the fleet's own bursty generator, cut to a
    fixed number of arrivals so that every seed asks for the same amount
    of work.
    """
    demand = DemandConfig(
        pattern="bursty", horizon_s=p["stream_horizon_s"],
        base_rate_per_s=p["rate_per_s"], n_tenants=p["n_tenants"],
        mean_lifetime_s=p["mean_lifetime_s"],
        min_lifetime_s=p["min_lifetime_s"], seed=seed)
    cfg = FleetConfig(
        n_racks=p["n_racks"], hosts_per_rack=p["hosts_per_rack"],
        host_memory_bytes=p["host_memory_mib"] * MiB, seed=seed,
        until=p["until_s"], decommission_host=p["decommission_host"],
        decommission_at=p["decommission_at_s"],
        demand=replace(demand, base_rate_per_s=0.0),
        rebalance=RebalanceConfig(**p["rebalance"]))

    def build_and_run():
        specs = DemandGenerator(demand).generate()[:p["arrivals"]]
        fleet = make_fleet(cfg)
        fleet.scheduler.run_demand(specs)
        fleet.run()
        return specs, fleet

    done = probe.call(build_and_run)
    if done is None:
        return None
    specs, fleet = done
    sched = fleet.scheduler
    c = sched.counters
    attempts = fleet.control.supervisor.attempts
    outputs = {
        "counters": c, "rebalance": fleet.rebalancer.counters,
        "placement_log": sched.placement_log,
        "rebalance_log": fleet.rebalancer.log,
        "plan_log": fleet.control.planner.log,
        "attempts": [[a.vm_name, a.src_host, a.dst_host,
                      None if a.outcome is None else a.outcome.value,
                      a.total_bytes, a.end_time] for a in attempts],
    }
    failures = []
    if len(specs) != p["arrivals"]:
        failures.append(f"demand stream has {len(specs)} arrivals, "
                        f"not {p['arrivals']}")
    open_ = sum(a.outcome is None for a in attempts)
    if open_:
        failures.append(f"{open_} migrations never reached an outcome")
    if c["booted"] + c["rejected"] != c["submitted"]:
        failures.append(f"booted {c['booted']} + rejected {c['rejected']} "
                        f"!= submitted {c['submitted']}")
    failed = c["rejected"] + sum(not _completed(a) for a in attempts)
    return {"outputs": outputs, "attempted": c["submitted"] + len(attempts),
            "failed": failed, "failures": failures,
            "info": {"arrivals": len(specs), "migrations": len(attempts),
                     "rejected": c["rejected"]}}


def fabric_1000(probe, p: dict, seed: int):
    """Flow churn on a 1000-host tiered fabric (the network arbiter)."""
    churn = probe.call(_run_churn, probe, p, seed)
    if churn is None:
        return None
    return {"outputs": churn.outputs(), "attempted": churn.migrations,
            "failed": 0, "failures": [],
            "info": {"flows_opened": len(churn.opened)}}


def _run_churn(probe, p: dict, seed: int) -> Churn:
    churn = Churn(p, seed)
    churn.run(probe)
    return churn


def fabric_verify(p: dict, seed: int) -> tuple[str, list[str]]:
    """Untimed pass checking every grant; returns its digest too."""
    churn = Churn(p, seed)
    problems = churn.run()
    return sim_digest(churn.outputs()), problems


#: name -> (episode, untimed verification pass or None)
WORKLOADS = {
    "paper-kv-agile": (paper_kv_agile, None),
    "fig7-busy": (fig7_busy, None),
    "fleet-400": (fleet_400, None),
    "fabric-1000": (fabric_1000, fabric_verify),
}
