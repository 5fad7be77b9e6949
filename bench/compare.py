"""Compare two sets of benchmark runs against the benchmark's bounds.

    python3 bench/compare.py A.json B.json

A and B are set files written by ``run.py --runs K --out SET.json``;
``FILE:KEY`` picks the set stored under ``KEY`` in a file holding
several (``bench/baseline.json:A``). A is the reference (the parent
commit, or the first of two A/A sets); B is measured against it.

One row per workload. For every end-to-end metric of BENCHMARK.json the
row gives A's and B's median and quartiles over their runs (untraced
runs only), B's change, and a verdict:

* ``ok`` - B's median is not worse than A's by more than the bound;
* ``worse`` - it is, and both sets are steady enough to tell;
* ``better`` - B's median is better by more than the bound;
* ``unresolved`` - the spread (q3 - q1) / median of A or B exceeds the
  bound, unless every B run is better than every A run.

The row ends with each side's fail_ratio (failed over attempted
simulated operations). The exit code is 1 when a pair is worse, a run
failed its checks, or B's fail_ratio is above A's; otherwise 0.
"""

from __future__ import annotations

import argparse
import json
import sys

from run import load_benchmark, spread_stats


def load_runs(spec: str) -> list[dict]:
    path, _, key = spec.partition(":")
    with open(path, encoding="utf-8") as fh:
        doc = json.load(fh)
    if key:
        doc = doc[key]
    return [r for r in doc["runs"] if not r["trace"]]


def verdict(metric: dict, a: list[float],
            b: list[float]) -> tuple[str, dict, dict, float]:
    sa, sb = spread_stats(a), spread_stats(b)
    sign = 1.0 if metric["better"] == "lower" else -1.0
    change = sign * (sb["median"] - sa["median"]) / sa["median"]
    bound = metric["bound"]
    spread = max((s["q3"] - s["q1"]) / s["median"] for s in (sa, sb))
    if sign * max(b) < sign * min(a):
        word = "better"
    elif spread > bound:
        word = "unresolved"
    elif change > bound:
        word = "worse"
    elif change < -bound:
        word = "better"
    else:
        word = "ok"
    return word, sa, sb, change


def fail_ratio(runs: list[dict]) -> float:
    return sum(r["failed"] for r in runs) / sum(r["attempted"] for r in runs)


def compare(runs_a: list[dict], runs_b: list[dict],
            bench: dict) -> tuple[list[str], bool]:
    """Report lines and whether B passes against A."""
    ok = True
    lines = []
    for w in bench["workloads"]:
        name = w["name"]
        a = [r for r in runs_a if r["workload"] == name]
        b = [r for r in runs_b if r["workload"] == name]
        if not a or not b:
            lines.append(f"{name}: no runs in {'A' if not a else 'B'}")
            ok = False
            continue
        cells = []
        for m in bench["end_to_end"]:
            word, sa, sb, change = verdict(
                m, [r["metrics"][m["name"]]["value"] for r in a],
                [r["metrics"][m["name"]]["value"] for r in b])
            ok &= word != "worse"
            cells.append(
                f"{m['name']} A {sa['median']:.4g} [{sa['q1']:.4g}, "
                f"{sa['q3']:.4g}] B {sb['median']:.4g} [{sb['q1']:.4g}, "
                f"{sb['q3']:.4g}] {100 * change:+.1f}% {word}")
        fa, fb = fail_ratio(a), fail_ratio(b)
        incorrect = sum(not r["correct"] for r in a + b)
        ok &= fb <= fa and not incorrect
        cells.append(f"fail_ratio A {fa:.4f} B {fb:.4f}"
                     + ("" if fb <= fa else " worse"))
        if incorrect:
            cells.append(f"{incorrect} runs failed their checks")
        lines.append(f"{name} (A n={len(a)}, B n={len(b)}): "
                     + " | ".join(cells))
    return lines, ok


def main(argv=None) -> int:
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("a", help="reference set: FILE or FILE:KEY")
    ap.add_argument("b", help="measured set: FILE or FILE:KEY")
    args = ap.parse_args(argv)
    lines, ok = compare(load_runs(args.a), load_runs(args.b),
                        load_benchmark())
    print("\n".join(lines))
    print("PASS" if ok else "FAIL")
    return 0 if ok else 1


if __name__ == "__main__":
    sys.exit(main())
