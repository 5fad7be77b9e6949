"""Measure one benchmark workload in this process; print its raw record.

    python3 bench/worker.py --workload NAME --seed N --seconds S \
        --trace 0|1 [--trace-file PATH]

``run.py`` starts one fresh, single-threaded worker per workload and
turns the record (the last line of standard output, JSON) into metrics.

A run first times set-up alone a few times, then repeats whole episodes
of the same seeded simulation until ``--seconds`` would be exceeded
(at least ``min_episodes``). With ``--trace 1`` untraced and traced
episodes alternate, so the tracing overhead is measured in the same run.
Every episode must produce the same ``sim_digest``.
"""

from __future__ import annotations

import argparse
import gc
import json
import resource
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parents[1]
sys.path.insert(0, str(ROOT / "src"))

import scenarios  # noqa: E402
from layers import CLOCK, LayerTracer, Probe  # noqa: E402

CONFIG = Path(__file__).with_name("workloads.json")
#: episodes per run, however long they take
MIN_EPISODES = 2
#: set-up-only passes before the episodes (each adds a set-up sample)
SETUP_REPS = 20


def load_params() -> dict:
    """Workload name -> its parameters."""
    with open(CONFIG, encoding="utf-8") as fh:
        return json.load(fh)


def measure(name: str, params: dict, seed: int, seconds: float,
            trace: bool, setup_reps: int = SETUP_REPS, log=None) -> dict:
    """Run workload ``name`` for about ``seconds``; return the record."""
    episode, verify = scenarios.WORKLOADS[name]
    started = CLOCK()
    failures: list[str] = []
    digests: set[str] = set()
    if verify is not None:
        digest, problems = verify(params, seed)
        digests.add(digest)
        failures.extend(problems)
    setup_samples = []
    for _ in range(setup_reps):
        gc.collect()
        with Probe(setup_only=True) as probe:
            episode(probe, params, seed)
        setup_samples.append(probe.setup_s)

    episodes: list[dict] = []
    chrome = None
    longest = 0.0
    attempted = failed = 0
    info: dict = {}
    while True:
        traced = trace and len(episodes) % 2 == 1
        tracer = LayerTracer(params["trace_window_tick"]) if traced else None
        gc.collect()
        t0 = CLOCK()
        with Probe(tracer) as probe:
            ep = episode(probe, params, seed)
        longest = max(longest, CLOCK() - t0)
        rec = {"traced": traced, "setup_s": probe.setup_s,
               "wall_s": probe.wall_s, "ticks": probe.ticks,
               "sim_digest": scenarios.sim_digest(ep["outputs"])}
        if traced:
            rec["layers"] = tracer.metrics(probe.wall_s, probe.ticks)
            rec["cells"] = {f"{layer}<{parent}": cell for (layer, parent),
                            cell in sorted(tracer.cells.items())}
            if chrome is None:
                chrome = tracer.chrome_trace()
        episodes.append(rec)
        setup_samples.append(probe.setup_s)
        digests.add(rec["sim_digest"])
        attempted += ep["attempted"]
        failed += ep["failed"]
        if len(episodes) == 1:
            failures.extend(ep["failures"])
            info = ep["info"]
        if log is not None:
            log(f"{name} seed {seed} episode {len(episodes)}"
                f"{' traced' if traced else ''}: set-up {probe.setup_s:.3f} s,"
                f" run {probe.wall_s:.3f} s, {probe.ticks} ticks")
        if len(episodes) >= MIN_EPISODES \
                and CLOCK() - started + longest > seconds:
            break
    if len(digests) > 1:
        failures.append(f"sim_digest differs between repeats: "
                        f"{sorted(digests)}")
    if failures:
        failed = attempted
    return {
        "workload": name, "seed": seed, "trace": int(trace),
        "params": params, "episodes": episodes,
        "setup_samples": setup_samples,
        "attempted": attempted, "failed": failed, "failures": failures,
        "info": info, "sim_digest": episodes[0]["sim_digest"],
        "chrome_trace": chrome,
    }


def main(argv=None) -> int:
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--workload", required=True)
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, required=True)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    ap.add_argument("--trace-file", type=Path)
    args = ap.parse_args(argv)

    import repro
    src = (ROOT / "src").resolve()
    if src not in Path(repro.__file__).resolve().parents:
        print(f"worker: repro imported from {repro.__file__}, not {src}",
              file=sys.stderr)
        return 2
    record = measure(args.workload, load_params()[args.workload], args.seed,
                     args.seconds, bool(args.trace),
                     log=lambda line: print(line, file=sys.stderr))
    chrome = record.pop("chrome_trace")
    if args.trace_file is not None and chrome is not None:
        args.trace_file.parent.mkdir(parents=True, exist_ok=True)
        with open(args.trace_file, "w", encoding="utf-8") as fh:
            json.dump(chrome, fh)
    record["peak_rss_mib"] = (
        resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0)
    print(json.dumps(record))
    return 0


if __name__ == "__main__":
    sys.exit(main())
