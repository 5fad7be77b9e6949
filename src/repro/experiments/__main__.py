"""CLI: regenerate any of the paper's tables and figures.

Usage::

    python -m repro.experiments fig4          # pre-copy timeline
    python -m repro.experiments fig6          # Agile timeline
    python -m repro.experiments fig7 --sizes 2,6,10 --busy
    python -m repro.experiments tab2
    python -m repro.experiments fig9
    python -m repro.experiments dc            # datacenter rebalance
    python -m repro.experiments churn         # rebalance ping-pong gate
    python -m repro.experiments fleet --quick # tenant-churn scheduler
    python -m repro.experiments fleet --ablate  # swap vs greedy gate
    python -m repro.experiments flashcrowd      # clone scale-out
    python -m repro.experiments flashcrowd --ablate  # clone vs fullcopy
    python -m repro.experiments slo             # SLO-aware shedding
    python -m repro.experiments slo --ablate    # aware vs blind gate

``--metrics PATH`` attaches a live :class:`~repro.telemetry.MetricsRegistry`
to the run and exports it — Prometheus text when PATH ends in ``.prom``,
deterministic JSONL otherwise (same seed ⇒ byte-identical file).

Heavy experiments (the pressure scenarios, the Figure 7/8 sweeps) take
minutes of wall-clock time each. Wall-clock performance is measured by
the repository benchmark (``python3 bench/run.py``), not by this CLI.
"""

from __future__ import annotations

import argparse
import sys
from dataclasses import replace

from repro.experiments.runners import (
    MIGRATE_AT,
    TABLE1_WINDOW,
    pressure_run,
    single_vm_run,
    wss_run,
)
from repro.metrics.ascii import sparkline as _spark
from repro.util import MiB

TECHNIQUES = ["pre-copy", "post-copy", "agile"]
FIG_TECH = {"fig4": "pre-copy", "fig5": "post-copy", "fig6": "agile"}

#: run -> (the export flags it honours, why it drops the others)
EXPORTS = {
    **{exp: (("trace",), "no live metrics")
       for exp in ("fig4", "fig5", "fig6", "fig9", "fig10")},
    **{exp: ((), "multi-run sweep")
       for exp in ("fig7", "fig8", "tab1", "tab2", "tab3")},
    **{exp: (("trace", "metrics"), "")
       for exp in ("dc", "churn", "fleet", "flashcrowd", "slo")},
    **{f"{exp} --ablate": ((), "two-arm ablation")
       for exp in ("fleet", "flashcrowd", "slo")},
}


def sparkline(series, t1, width=70):
    sub = series.between(0.0, t1).resample(t1 / width)
    return _spark(sub.v, width)


def make_tracer(args):
    """A live Tracer when ``--trace`` was given, else None (NullTracer
    semantics downstream: zero instrumentation overhead)."""
    if not args.trace:
        return None
    from repro.obs.tracer import Tracer
    return Tracer()


def export_trace(tracer, path: str) -> None:
    """Write the collected trace: Chrome JSON (default) or JSONL."""
    if tracer is None:
        return
    from repro.obs.export import trace_to_chrome, trace_to_jsonl
    tracer.finish()
    if path.endswith(".jsonl"):
        trace_to_jsonl(tracer, path)
    else:
        trace_to_chrome(tracer, path)
    print(f"  trace: {len(tracer.events)} events -> {path}")


def make_metrics(args):
    """A live MetricsRegistry when ``--metrics`` was given, else None
    (NULL_METRICS semantics downstream: zero instrumentation cost)."""
    if not getattr(args, "metrics", None):
        return None
    from repro.telemetry import MetricsRegistry
    return MetricsRegistry()


def export_metrics(registry, path: str) -> None:
    """Write the collected metrics: JSONL (default) or Prometheus text
    when ``path`` ends in ``.prom``."""
    if registry is None:
        return
    from repro.telemetry import metrics_to_jsonl, metrics_to_prometheus
    if path.endswith(".prom"):
        metrics_to_prometheus(registry, path)
    else:
        metrics_to_jsonl(registry, path)
    print(f"  metrics: {len(registry)} instruments -> {path}")


def cmd_timeline(fig: str, seed=None, tracer=None) -> None:
    technique = FIG_TECH[fig]
    res = pressure_run(technique, "kv", seed=seed, tracer=tracer)
    end = res["report"].end_time
    print(f"Figure {fig[-1]} — avg YCSB throughput, {technique} "
          f"(ramp@150s, migrate@{MIGRATE_AT:.0f}s):")
    print(f"  |{sparkline(res['avg_series'], end + 250.0)}|")
    print(f"  peak {res['peak']:,.0f} ops/s; thrash {res['thrash']:,.0f}; "
          f"during {res['during']:,.0f}; after {res['after']:,.0f}")
    print(f"  migration {res['total_time']:.0f} s; recovery to 90% "
          f"{res['recovery_90']:.0f} s")


def cmd_sweep(which: str, sizes: list[float], busy: bool,
              seed=None) -> None:
    fig = "7" if which == "fig7" else "8"
    field = "total_time" if which == "fig7" else "total_gib"
    unit = "s" if which == "fig7" else "GiB"
    print(f"Figure {fig} — {'migration time' if fig == '7' else 'data'} "
          f"({unit}), {'busy' if busy else 'idle'} VM, 6 GB host:")
    print("  VM GiB   " + "".join(f"{s:>9.0f}" for s in sizes))
    for t in TECHNIQUES:
        row = "".join(f"{single_vm_run(t, s, busy, seed=seed)[field]:9.1f}"
                      for s in sizes)
        print(f"  {t:<9s}{row}")


def cmd_table(which: str, seed=None) -> None:
    for kind in ("kv", "oltp"):
        name = "YCSB/Redis" if kind == "kv" else "Sysbench"
        rows = {t: pressure_run(t, kind, seed=seed) for t in TECHNIQUES}
        if which == "tab1":
            print(f"Table I — avg {name} performance over "
                  f"{TABLE1_WINDOW:.0f} s:")
            for t in TECHNIQUES:
                print(f"  {t:<10s} {rows[t]['table1']:10.1f}")
        elif which == "tab2":
            print(f"Table II — total migration time (s), {name}:")
            for t in TECHNIQUES:
                print(f"  {t:<10s} {rows[t]['total_time']:10.1f}")
        else:
            print(f"Table III — data transferred (MB), {name}:")
            for t in TECHNIQUES:
                mb = rows[t]["report"].total_bytes / MiB
                print(f"  {t:<10s} {mb:10.0f}")


def cmd_datacenter(seed=None, health_aware=True, tracer=None,
                   quick=False, metrics=None) -> None:
    from repro.experiments.datacenter import (
        DatacenterConfig, datacenter_run, honeypot_schedule)
    cfg = DatacenterConfig(seed=seed if seed is not None else 0,
                           health_aware=health_aware)
    res = datacenter_run(honeypot_schedule(), cfg,
                         until=30.0 if quick else 60.0, tracer=tracer,
                         metrics=metrics)
    mode = "health-aware" if health_aware else "health-blind"
    print(f"Datacenter rebalance under a flapping rack ({mode}):")
    for line in res["plan_log"]:
        print(f"  {line}")
    print(f"  outcomes: {res['outcomes']}; "
          f"bad attempts: {res['failed_or_aborted']}; "
          f"unavailable {res['unavailable_s']:g} s; "
          f"dead VMs: {res['dead_vms'] or 'none'}")


def cmd_churn(seed=None, quick=False, tracer=None,
              metrics=None) -> int:
    """The churn ablation as a CI gate: a churn-aware planner must not
    migrate more than the naive one on the ping-pong scenario."""
    from repro.experiments.datacenter import churn_run
    until = 20.0 if quick else 40.0
    seed = seed if seed is not None else 0
    naive = churn_run(churn_aware=False, seed=seed, until=until)
    aware = churn_run(churn_aware=True, seed=seed, until=until,
                      tracer=tracer, metrics=metrics)
    print("Rebalance churn ablation (honeypot watermark trap):")
    for label, res in (("naive", naive), ("aware", aware)):
        print(f"  {label:<6s} migrations={res['migrations']:3d}  "
              f"re-sheds={len(res['resheds']):3d}  "
              f"deferrals={res['deferrals'] or '{}'}")
    if aware["migrations"] > naive["migrations"]:
        print("  FAIL: churn-aware planner migrated more than naive")
        return 1
    print("  gate ok: aware <= naive total migrations")
    return 0


def cmd_fleet(args, tracer=None, metrics=None) -> int:
    """The tenant-churn fleet scenario, or its swap-vs-greedy ablation
    as a CI gate (swap-aware must not move more migration bytes)."""
    from repro.experiments.fleet import (
        FleetConfig, fleet_ablation, fleet_run, quick_config)
    seed = args.seed if args.seed is not None else 0
    if args.ablate:
        res = fleet_ablation(seed=seed, quick=args.quick)
        print("Fleet rebalance ablation (destination-swap vs greedy):")
        for label in ("greedy", "swap"):
            arm = res[label]
            print(f"  {label:<7s} {arm['summary']}")
            print(f"  {'':<7s} moved {arm['migration_bytes'] / MiB:.1f} "
                  f"MiB in {arm['rebalance']['moves']} moves "
                  f"({arm['rebalance']['swaps']} swaps); "
                  f"overloaded-host sightings "
                  f"{arm['rebalance']['overloaded_seen']}; rack "
                  f"imbalance {arm['rack_imbalance_bytes'] / MiB:.1f} MiB")
        if not res["swap_wins_bytes"]:
            print("  FAIL: swap-aware moved more bytes than greedy")
            return 1
        print("  gate ok: swap-aware <= greedy migration bytes")
        return 0
    cfg = quick_config(seed=seed) if args.quick else FleetConfig(seed=seed)
    if args.pattern:
        cfg = replace(cfg, demand=replace(cfg.demand,
                                          pattern=args.pattern))
    if args.strategy:
        cfg = replace(cfg, strategy=args.strategy)
    res = fleet_run(cfg, tracer=tracer, metrics=metrics)
    mode = "quick" if args.quick else "full"
    print(f"Fleet churn scenario ({mode}, seed {seed}, "
          f"{cfg.strategy} rebalancing, {cfg.demand.pattern} demand):")
    print(f"  {res['arrivals']} arrivals; {res['summary']}")
    reb = res["rebalance"]
    print(f"  rebalancer: {reb['moves']} moves ({reb['swaps']} swaps) "
          f"over {reb['rounds']} rounds; "
          f"{res['migration_bytes'] / MiB:.1f} MiB migrated")
    print(f"  rack imbalance {res['rack_imbalance_bytes'] / MiB:.1f} "
          f"MiB; {res['alive']} VMs alive at end")
    for line in res["placement_log"][-8:]:
        print(f"  {line}")
    export_trace(tracer, args.trace)
    export_metrics(metrics, args.metrics)
    return 0


def cmd_flashcrowd(args, tracer=None, metrics=None) -> int:
    """The flash-crowd scale-out scenario, or its clone-vs-fullcopy
    ablation as a CI gate (clones must reach N serving faster)."""
    from repro.experiments.flashcrowd import (
        FlashCrowdConfig, flashcrowd_ablation, flashcrowd_run,
        quick_config)
    seed = args.seed if args.seed is not None else 0
    if args.ablate:
        res = flashcrowd_ablation(seed=seed, quick=args.quick)
        print("Flash-crowd provisioning ablation (clone vs full-copy):")
        for label in ("clone", "fullcopy"):
            arm = res[label]
            t = arm["time_to_n_serving"]
            b = arm["bytes_to_serving"]
            print(f"  {label:<9s} {arm['summary']}")
            print(f"  {'':<9s} time-to-N-serving "
                  f"{'never' if t is None else f'{t:.2f}s'}; "
                  f"moved {0 if b is None else b / MiB:.1f} MiB to get "
                  f"there ({arm['provision_bytes'] / MiB:.1f} MiB total)")
        if not res["clone_wins_time"]:
            print("  FAIL: clone arm was not faster to N serving")
            return 1
        print("  gate ok: clones reached N serving before full copies")
        return 0
    cfg = (quick_config(seed=seed) if args.quick
           else FlashCrowdConfig(seed=seed))
    if args.provision:
        cfg = replace(cfg, provision=args.provision)
    res = flashcrowd_run(cfg, tracer=tracer, metrics=metrics)
    mode = "quick" if args.quick else "full"
    t = res["time_to_n_serving"]
    print(f"Flash-crowd scale-out ({mode}, seed {seed}, "
          f"{res['provision']} provisioning):")
    print(f"  {res['arrivals']} arrivals ({cfg.n_replicas} hot); "
          f"{res['summary']}")
    print(f"  time to {cfg.serving_target} serving: "
          f"{'never' if t is None else f'{t:.2f}s'}; provisioning "
          f"moved {res['provision_bytes'] / MiB:.1f} MiB")
    for line in res["serving_log"]:
        print(f"  {line}")
    export_trace(tracer, args.trace)
    export_metrics(metrics, args.metrics)
    if args.json:
        import json
        doc = {k: res[k] for k in
               ("provision", "arrivals", "counters", "rejected",
                "placement_log", "serving_log", "clone_log",
                "time_to_n_serving", "bytes_to_serving",
                "provision_bytes", "alive", "summary")}
        doc["hot_serving"] = [[n, t] for n, t in res["hot_serving"]]
        with open(args.json, "w") as fh:
            json.dump(doc, fh, indent=2, sort_keys=True)
        print(f"  wrote {args.json}")
    return 0


def cmd_slo(args, tracer=None, metrics=None) -> int:
    """The SLO-aware shedding scenario, or its aware-vs-blind ablation
    as a CI gate (the aware selector must strictly cut the serving
    tenant's violation-seconds)."""
    from repro.experiments.slo import SloScenarioConfig, slo_ablation, slo_run
    until = 15.0 if args.quick else 40.0
    config = SloScenarioConfig(
        seed=args.seed if args.seed is not None else 0)
    if args.ablate:
        res = slo_ablation(config=config, until=until)
        print("SLO-aware shedding ablation (aware vs blind selector):")
        for label in ("blind", "aware"):
            arm = res[label]
            print(f"  {label:<6s} violation {arm['violation_s']:g} s; "
                  f"migrated {','.join(arm['migrated'])}; "
                  f"outcomes {arm['outcomes']}")
            if arm["attribution"]:
                print(f"  {'':<6s} attribution {arm['attribution']}")
        blind_v = res["blind"]["violation_s"]
        aware_v = res["aware"]["violation_s"]
        if blind_v <= 0:
            print("  FAIL: blind arm accrued no violations "
                  "(scenario lost its teeth)")
            return 1
        if aware_v >= blind_v:
            print("  FAIL: aware selector did not reduce "
                  "violation-seconds")
            return 1
        print(f"  gate ok: aware {aware_v:g} s < blind {blind_v:g} s "
              f"violation-seconds")
        return 0
    res = slo_run(blind=args.slo_blind, config=config, until=until,
                  tracer=tracer, metrics=metrics)
    print(f"SLO-aware shedding ({res['arm']} selector):")
    print(f"  violation {res['violation_s']:g} s "
          f"(per tenant: {res['by_tenant']}); "
          f"migrated {','.join(res['migrated']) or 'none'}; "
          f"outcomes {res['outcomes']}")
    if res["attribution"]:
        print(f"  attribution: {res['attribution']}")
    print(f"  cluster pressure at end: {res['pressure_cluster']:.3f}")
    if metrics is not None:
        from repro.telemetry import render_dashboard
        print(render_dashboard(metrics, select="slo.*"))
        print(render_dashboard(metrics, select="pressure.*"))
    export_trace(tracer, args.trace)
    export_metrics(metrics, args.metrics)
    return 0


def cmd_wss(which: str, seed=None, tracer=None) -> None:
    res = wss_run(seed=seed, tracer=tracer)
    if which == "fig9":
        r = res["reservation"]
        print("Figure 9 — WSS tracking (reservation, MiB):")
        print(f"  |{sparkline(r, 800.0)}|")
        print(f"  phase 1 settle: {r.between(200, 400).mean() / MiB:,.0f} "
              f"MiB (WSS 1024); phase 2: "
              f"{r.between(600, 800).mean() / MiB:,.0f} MiB (WSS 1536)")
    else:
        t = res["throughput"].resample(5.0)
        print("Figure 10 — YCSB throughput under tracking:")
        print(f"  |{sparkline(t, 800.0)}|")
        print(f"  converged mean: {t.between(250, 400).mean():,.0f} ops/s")


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(
        prog="python -m repro.experiments",
        description="Regenerate the paper's tables and figures.")
    parser.add_argument("experiment",
                        choices=["fig4", "fig5", "fig6", "fig7", "fig8",
                                 "fig9", "fig10", "tab1", "tab2", "tab3",
                                 "dc", "churn", "fleet",
                                 "flashcrowd", "slo"])
    parser.add_argument("--sizes", default="2,4,6,8,10,12",
                        help="VM sizes in GiB for fig7/fig8 sweeps")
    parser.add_argument("--busy", action="store_true",
                        help="busy VM for fig7/fig8 (default idle)")
    parser.add_argument("--health-blind", action="store_true",
                        help="disable the health-aware planner for the "
                             "dc scenario (ablation baseline)")
    parser.add_argument("--seed", type=int, default=None,
                        help="override the experiment RNG seed (runs are "
                             "deterministic for a given seed)")
    parser.add_argument("--quick", action="store_true",
                        help="dc: run 30 sim-seconds instead of 60; "
                             "churn: 20 sim-seconds instead of 40; "
                             "fleet: 20 s of demand, ~32 s simulated; "
                             "flashcrowd: 6 replicas, 20 s simulated")
    parser.add_argument("--trace", metavar="PATH", default=None,
                        help="record a sim-clock trace of the run; PATH "
                             "ending in .jsonl writes flat JSONL, "
                             "anything else Chrome trace-event JSON "
                             "(load in chrome://tracing or Perfetto). "
                             "Supported by fig4-6, fig9-10, dc, churn, "
                             "and fleet, flashcrowd, slo without "
                             "--ablate; ignored with a note elsewhere.")
    parser.add_argument("--metrics", metavar="PATH", default=None,
                        help="attach a live metrics registry and export "
                             "it to PATH: Prometheus text for .prom, "
                             "deterministic JSONL otherwise. Supported "
                             "by dc, churn, and fleet, flashcrowd, slo "
                             "without --ablate; ignored with a note "
                             "elsewhere.")
    parser.add_argument("--slo-blind", action="store_true",
                        help="slo: use the default largest-first "
                             "trigger selector instead of the "
                             "SLO-aware one (ablation baseline)")
    parser.add_argument("--json", metavar="PATH", default=None,
                        help="flashcrowd: write results to PATH as JSON")
    parser.add_argument("--strategy", choices=["greedy", "swap"],
                        default=None,
                        help="fleet: rebalance strategy (default swap)")
    parser.add_argument("--provision", choices=["clone", "fullcopy"],
                        default=None,
                        help="flashcrowd: provisioning arm "
                             "(default clone)")
    parser.add_argument("--pattern",
                        choices=["bursty", "diurnal", "flash-crowd"],
                        default=None,
                        help="fleet: demand arrival pattern")
    parser.add_argument("--ablate", action="store_true",
                        help="fleet: run swap vs greedy on the same "
                             "demand stream and gate on migration bytes; "
                             "flashcrowd: clone vs full-copy, gated on "
                             "time to N serving replicas")
    args = parser.parse_args(argv)

    exp = args.experiment
    run = f"{exp} --ablate"
    if not (args.ablate and run in EXPORTS):
        run = exp
    supported, why = EXPORTS[run]
    for flag in ("trace", "metrics"):
        if getattr(args, flag) and flag not in supported:
            print(f"note: --{flag} is not supported for {run} ({why}); "
                  f"ignoring")
            setattr(args, flag, None)
    # one tracer and one registry per run, handed to the command that
    # records into them; each export follows the command's report
    tracer = make_tracer(args)
    metrics = make_metrics(args)
    if exp in FIG_TECH:
        cmd_timeline(exp, seed=args.seed, tracer=tracer)
    elif exp in ("fig7", "fig8"):
        sizes = [float(s) for s in args.sizes.split(",")]
        cmd_sweep(exp, sizes, args.busy, seed=args.seed)
    elif exp in ("tab1", "tab2", "tab3"):
        cmd_table(exp, seed=args.seed)
    elif exp == "dc":
        cmd_datacenter(seed=args.seed,
                       health_aware=not args.health_blind,
                       tracer=tracer, quick=args.quick, metrics=metrics)
        export_metrics(metrics, args.metrics)
    elif exp == "churn":
        rc = cmd_churn(seed=args.seed, quick=args.quick, tracer=tracer,
                       metrics=metrics)
        export_trace(tracer, args.trace)
        export_metrics(metrics, args.metrics)
        return rc
    elif exp == "fleet":
        return cmd_fleet(args, tracer, metrics)
    elif exp == "flashcrowd":
        return cmd_flashcrowd(args, tracer, metrics)
    elif exp == "slo":
        return cmd_slo(args, tracer, metrics)
    else:
        cmd_wss(exp, seed=args.seed, tracer=tracer)
    export_trace(tracer, args.trace)
    return 0


if __name__ == "__main__":
    sys.exit(main())
