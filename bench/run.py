"""The repository's benchmark: paper runs, fleet and fabric workloads.

    python3 bench/run.py [--workload W] [--seed N] [--seconds S]
                         [--trace 0|1] [--runs K] [--out SET.json]

Each selected workload (all of them without ``--workload``) runs in a
fresh single-threaded subprocess (``bench/worker.py``), one at a time,
for about ``--seconds`` (default: ``run_seconds`` of BENCHMARK.json).
Every metric is printed by name with its unit and regression bound; the
full result goes to ``bench/out/<workload>-seed<N>-trace<T>.json``.
With ``--trace 1`` the metrics are the per-layer split instead of the
end-to-end metrics, and a Chrome trace of one 20-tick window is written
beside the result.

``--runs K`` repeats each workload for seeds N .. N+K-1 and ``--out``
writes those results as one set for ``bench/compare.py``.

The last line of standard output is one JSON object with the keys
``correct``, ``attempted``, ``failed`` and ``metrics``. The exit code is
0 when every output check passed, 1 when one failed, and 2 when a
worker crashed or timed out (then no result line is printed).
"""

from __future__ import annotations

import argparse
import json
import os
import statistics
import subprocess
import sys
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
OUT = HERE / "out"
#: a run must end within 180 s; a worker that has not ended by now is
#: killed
WORKER_TIMEOUT_S = 170.0
SINGLE_THREADED = {"OMP_NUM_THREADS": "1", "OPENBLAS_NUM_THREADS": "1",
                   "MKL_NUM_THREADS": "1", "PYTHONHASHSEED": "0"}


class WorkerError(RuntimeError):
    """A worker crashed, timed out or printed no record."""


def load_benchmark() -> dict:
    with open(ROOT / "BENCHMARK.json", encoding="utf-8") as fh:
        return json.load(fh)


def spread_stats(values: list[float]) -> dict:
    """Median, quartiles (``statistics.quantiles(n=4)``), max and count."""
    if len(values) > 1:
        q1, med, q3 = statistics.quantiles(values, n=4)
    else:
        q1 = med = q3 = values[0]
    return {"median": med, "q1": q1, "q3": q3, "max": max(values),
            "n": len(values)}


def run_worker(workload: str, seed: int, seconds: float, trace: int,
               trace_file: Path | None) -> dict:
    cmd = [sys.executable, str(HERE / "worker.py"), "--workload", workload,
           "--seed", str(seed), "--seconds", repr(seconds),
           "--trace", str(trace)]
    if trace_file is not None:
        cmd += ["--trace-file", str(trace_file)]
    try:
        proc = subprocess.run(cmd, stdout=subprocess.PIPE, text=True,
                              cwd=ROOT, env={**os.environ, **SINGLE_THREADED},
                              timeout=WORKER_TIMEOUT_S)
    except subprocess.TimeoutExpired as exc:
        raise WorkerError(f"{workload}: worker killed after "
                          f"{WORKER_TIMEOUT_S:g} s") from exc
    lines = proc.stdout.strip().splitlines()
    if proc.returncode != 0 or not lines:
        raise WorkerError(f"{workload}: worker exited with code "
                          f"{proc.returncode}")
    return json.loads(lines[-1])


def summarize(record: dict, bench: dict) -> dict:
    """Turn a worker record into the benchmark's result object."""
    plain = [e for e in record["episodes"] if not e["traced"]]
    traced = [e for e in record["episodes"] if e["traced"]]
    if record["trace"]:
        specs = bench["per_layer"]
        samples = {m["name"]: [e["layers"][m["name"]] for e in traced]
                   for m in specs if m["name"] != "trace_overhead_pct"}
        ratio = (statistics.median(e["wall_s"] for e in traced)
                 / statistics.median(e["wall_s"] for e in plain))
        samples["trace_overhead_pct"] = [100.0 * (ratio - 1.0)]
    else:
        specs = bench["end_to_end"]
        samples = {"wall_s": [e["wall_s"] for e in plain],
                   "setup_s": record["setup_samples"],
                   "peak_rss_mib": [record["peak_rss_mib"]]}
    stats = {m["name"]: spread_stats(samples[m["name"]]) for m in specs}
    return {
        "correct": not record["failures"],
        "attempted": record["attempted"],
        "failed": record["failed"],
        "metrics": {m["name"]: {"value": stats[m["name"]]["median"],
                                "unit": m["unit"]} for m in specs},
        "workload": record["workload"],
        "seed": record["seed"],
        "trace": record["trace"],
        "stats": stats,
        "sim_digest": record["sim_digest"],
        "failures": record["failures"],
        "info": record["info"],
        "episodes": record["episodes"],
        "params": record["params"],
    }


def report(result: dict, bench: dict) -> list[str]:
    """Human-readable lines: every metric with its unit and bound."""
    specs = bench["per_layer" if result["trace"] else "end_to_end"]
    lines = [f"== {result['workload']} seed {result['seed']} trace "
             f"{result['trace']}: {len(result['episodes'])} episodes, "
             f"sim_digest {result['sim_digest'][:16]}"]
    for m in specs:
        s = result["stats"][m["name"]]
        bound = (f"bound +{100 * m['bound']:g}%" if "bound" in m
                 else "no bound")
        lines.append(
            f"  {m['name']:<28} {s['median']:>14.6g} {m['unit']:<6} "
            f"q1 {s['q1']:.6g}  q3 {s['q3']:.6g}  max {s['max']:.6g}  "
            f"n={s['n']}  ({m['better']} is better, {bound})")
    att, fail = result["attempted"], result["failed"]
    lines.append(f"  operations: {att} attempted, {fail} failed "
                 f"(fail_ratio {fail / att:.4f})")
    for key, value in sorted(result["info"].items()):
        lines.append(f"  {key}: {value:.6g}" if isinstance(value, float)
                     else f"  {key}: {value}")
    lines.append("  checks: " + ("ok" if result["correct"] else
                                 "FAILED: " + "; ".join(result["failures"])))
    return lines


def compact(result: dict) -> dict:
    """A result without its per-episode detail (for set files)."""
    return {k: v for k, v in result.items()
            if k not in ("episodes", "params")}


def main(argv=None) -> int:
    bench = load_benchmark()
    names = [w["name"] for w in bench["workloads"]]
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--workload", choices=names)
    ap.add_argument("--seed", type=int, default=0)
    ap.add_argument("--seconds", type=float, default=bench["run_seconds"])
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    ap.add_argument("--runs", type=int, default=1)
    ap.add_argument("--out", type=Path)
    args = ap.parse_args(argv)

    OUT.mkdir(exist_ok=True)
    results = []
    for workload in [args.workload] if args.workload else names:
        for seed in range(args.seed, args.seed + args.runs):
            stem = f"{workload}-seed{seed}"
            trace_file = OUT / f"{stem}.trace.json" if args.trace else None
            try:
                record = run_worker(workload, seed, args.seconds,
                                    args.trace, trace_file)
            except WorkerError as exc:
                print(f"run.py: {exc}", file=sys.stderr)
                return 2
            result = summarize(record, bench)
            with open(OUT / f"{stem}-trace{args.trace}.json", "w",
                      encoding="utf-8") as fh:
                json.dump(result, fh, indent=1)
            print("\n".join(report(result, bench)), flush=True)
            results.append(result)
    if args.out is not None:
        with open(args.out, "w", encoding="utf-8") as fh:
            json.dump({"runs": [compact(r) for r in results]}, fh, indent=1)

    if len(results) == 1:
        final = {k: results[0][k]
                 for k in ("correct", "attempted", "failed", "metrics")}
    else:
        final = {"correct": all(r["correct"] for r in results),
                 "attempted": sum(r["attempted"] for r in results),
                 "failed": sum(r["failed"] for r in results),
                 "metrics": {}}
        for r in results:
            for name, m in r["metrics"].items():
                final["metrics"].setdefault(
                    f"{r['workload']}.{name}",
                    {"values": [], "unit": m["unit"]})["values"].append(
                        m["value"])
        for m in final["metrics"].values():
            m["value"] = statistics.median(m.pop("values"))
    print(json.dumps(final))
    return 0 if final["correct"] else 1


if __name__ == "__main__":
    sys.exit(main())
