"""Figures 4-6: average YCSB throughput timelines through migration.

Paper setup (§V-A): four 10 GB VMs on a 23 GB source host, each running
a Redis server with a 9 GB dataset queried by an external YCSB client.
Load ramps from 200 MB to 6 GB per client starting at 150 s (staggered
50 s); one VM is migrated at 400 s to relieve the memory pressure.

Paper results: pre-copy completes in 470 s, post-copy in 247 s, Agile in
108 s; average throughput recovers to 90 % of maximum in 533 s / 294 s /
215 s respectively. Agile recovers fastest and degrades least.
"""

import pytest

from conftest import pressure_run, run_once
from repro.experiments.runners import MIGRATE_AT

PAPER = {
    "pre-copy": {"mig_time": 470.0, "recovery_90": 533.0},
    "post-copy": {"mig_time": 247.0, "recovery_90": 294.0},
    "agile": {"mig_time": 108.0, "recovery_90": 215.0},
}


def sparkline(series, t1, width=70):
    blocks = " .:-=+*#%@"
    sub = series.between(0.0, t1).resample(t1 / width)
    top = max(sub.v.max(), 1e-9)
    return "".join(blocks[int(v / top * (len(blocks) - 1))] for v in sub.v)


@pytest.mark.parametrize("technique", ["pre-copy", "post-copy", "agile"])
def test_timeline(benchmark, emit, technique):
    fig = {"pre-copy": 4, "post-copy": 5, "agile": 6}[technique]
    res = run_once(benchmark, lambda: pressure_run(technique, "kv"))
    end = res["report"].end_time
    emit(
        f"",
        f"Figure {fig} — avg YCSB throughput, {technique} "
        f"(ramp@150s, migrate@{MIGRATE_AT:.0f}s):",
        f"  |{sparkline(res['avg_series'], end + 250.0)}|",
        f"  peak {res['peak']:,.0f} ops/s; thrash {res['thrash']:,.0f}; "
        f"during migration {res['during']:,.0f}; after relief "
        f"{res['after']:,.0f}",
        f"  migration time {res['total_time']:.0f} s "
        f"(paper {PAPER[technique]['mig_time']:.0f} s); "
        f"recovery to 90% {res['recovery_90']:.0f} s "
        f"(paper {PAPER[technique]['recovery_90']:.0f} s)",
    )
    # Shape: thrashing collapses throughput well below peak...
    assert res["thrash"] < 0.25 * res["peak"]
    # ...and migrating one VM away restores it.
    assert res["after"] > 0.85 * res["peak"]
    assert res["recovery_90"] is not None


def test_recovery_ordering(benchmark, emit):
    """§V-A3: Agile restores performance fastest, pre-copy slowest."""
    rec = run_once(benchmark, lambda: {
        t: pressure_run(t, "kv")["recovery_90"]
        for t in ("pre-copy", "post-copy", "agile")})
    emit("", f"Recovery-to-90% ordering: {rec} "
             f"(paper: 533 / 294 / 215 s)")
    assert rec["agile"] < rec["post-copy"] < rec["pre-copy"]


def test_migration_time_ordering(benchmark, emit):
    times = run_once(benchmark, lambda: {
        t: pressure_run(t, "kv")["total_time"]
        for t in ("pre-copy", "post-copy", "agile")})
    emit("", f"Migration-time ordering: "
             f"{ {k: round(v) for k, v in times.items()} } "
             f"(paper: 470 / 247 / 108 s)")
    assert times["agile"] < times["post-copy"] < times["pre-copy"]
    # the paper's headline: up to ~4x faster than pre-copy; we require
    # at least 2.5x to guard the shape without over-fitting constants
    assert times["pre-copy"] / times["agile"] > 2.5
