"""Tests for the benchmark itself: ``python -m pytest bench -q``.

Every workload runs with shrunk parameters through the same code path
as a real run (``worker.measure`` then ``run.summarize``), traced and
untraced episodes alternating.
"""

from __future__ import annotations

import copy
import json
import shutil
import subprocess
import sys
from pathlib import Path

import pytest

HERE = Path(__file__).resolve().parent
sys.path.insert(0, str(HERE.parent / "src"))

import compare  # noqa: E402
import run  # noqa: E402
import scenarios  # noqa: E402
import worker  # noqa: E402
from repro.core import MigrationOutcome, MigrationReport  # noqa: E402
from repro.metrics import TimeSeries  # noqa: E402
from repro.util import GiB  # noqa: E402

SHRINK = {
    "paper-kv-agile": {"page_kib": 4096},
    "fig7-busy": {"page_kib": 2048},
    "fleet-400": {"n_racks": 3, "hosts_per_rack": 4, "arrivals": 24,
                  "rate_per_s": 0.5, "stream_horizon_s": 80.0,
                  "until_s": 50.0, "decommission_at_s": 10.0,
                  "trace_window_tick": 50},
    "fabric-1000": {"n_azs": 1, "pods_per_az": 2, "racks_per_pod": 2,
                    "hosts_per_rack": 4, "migration_slots": 10,
                    "ticks": 12, "trace_window_tick": 2},
}


def small_params(name: str) -> dict:
    params = copy.deepcopy(worker.load_params()[name])
    params.update(SHRINK[name])
    return params


def measure(name: str, params: dict | None = None, trace: bool = True):
    return worker.measure(name, params or small_params(name), seed=1,
                          seconds=0.0, trace=trace, setup_reps=2)


def test_config_covers_every_workload():
    bench = run.load_benchmark()
    names = [w["name"] for w in bench["workloads"]]
    assert names == list(scenarios.WORKLOADS)
    assert sorted(names) == sorted(worker.load_params())
    assert sorted(names) == sorted(SHRINK)


@pytest.mark.parametrize("name", list(SHRINK))
def test_workload_result_schema_and_digest(name):
    bench = run.load_benchmark()
    record = measure(name)
    assert record["failures"] == []
    episodes = record["episodes"]
    assert [e["traced"] for e in episodes] == [False, True]
    # tracing must not change the simulation
    assert episodes[0]["sim_digest"] == episodes[1]["sim_digest"]

    record["peak_rss_mib"] = 1.0
    for trace, specs in ((1, bench["per_layer"]), (0, bench["end_to_end"])):
        result = run.summarize(dict(record, trace=trace), bench)
        line = json.loads(json.dumps(
            {k: result[k] for k in ("correct", "attempted", "failed",
                                    "metrics")}))
        assert line["correct"] is True
        assert line["attempted"] >= 1 and line["failed"] == 0
        assert sorted(line["metrics"]) == sorted(m["name"] for m in specs)
        for m in specs:
            assert line["metrics"][m["name"]]["unit"] == m["unit"]
        assert run.report(result, bench)[-1] == "  checks: ok"
    e2e = run.summarize(dict(record, trace=0), bench)["metrics"]
    assert e2e["wall_s"]["value"] > 0 and e2e["setup_s"]["value"] > 0


def test_traced_layers_attribute_the_run():
    record = measure("fabric-1000")
    layers = record["episodes"][1]["layers"]
    assert layers["net.arbitrate.calls"] == layers["sim.ticks"] == 12
    assert layers["net.flows_open"] > 0
    assert layers["mem.evict.calls"] == layers["fleet.hostview.calls"] == 0


def test_digest_mismatch_fails_the_run(monkeypatch):
    seen = iter(range(1000))
    monkeypatch.setattr(scenarios, "sim_digest",
                        lambda outputs: str(next(seen)))
    record = measure("fabric-1000", trace=False)
    assert any("sim_digest differs" in f for f in record["failures"])
    assert record["failed"] == record["attempted"]


class CannedProbe:
    """Stands in for layers.Probe, answering each call from a list."""

    setup_only = False

    def __init__(self, answers):
        self.answers = list(answers)

    def call(self, fn, *args, **kwargs):
        return self.answers.pop(0)


def test_paper_check_fires():
    rep = MigrationReport(technique="agile", vm_name="vm0",
                          precopy_bytes=11 * GiB,
                          outcome=MigrationOutcome.ABORTED)
    canned = {"report": rep, "total_time": 1.0, "recovery_90": None,
              "table1": 1.0, "peak": 1.0, "thrash": 1.0, "during": 1.0,
              "after": 1.0, "avg_series": TimeSeries()}
    ep = scenarios.paper_kv_agile(CannedProbe([canned]),
                                  small_params("paper-kv-agile"), 0)
    assert len(ep["failures"]) == 3 and ep["failed"] == 1


def test_fig7_check_fires():
    params = small_params("fig7-busy")
    answers = []
    for size in params["sizes_gib"]:
        for tech in params["techniques"]:
            slow = tech == "agile" and size == max(params["sizes_gib"])
            rep = MigrationReport(technique=tech, vm_name="vm0",
                                  outcome=MigrationOutcome.COMPLETED)
            answers.append({"report": rep, "total_time": 500.0 if slow
                            else 100.0 if tech == "agile" else 200.0,
                            "total_gib": 1.0, "downtime": 0.1, "rounds": 1,
                            "resident_gib": 1.0})
    ep = scenarios.fig7_busy(CannedProbe(answers), params, 0)
    assert len(ep["failures"]) == 3


def test_fleet_check_fires():
    params = small_params("fleet-400")
    params["arrivals"] = 10_000
    record = measure("fleet-400", params, trace=False)
    assert any("arrivals" in f for f in record["failures"])


def test_fabric_check_fires(monkeypatch):
    from repro.net import Network
    arbitrate = Network.arbitrate

    def overgrant(net, dt):
        arbitrate(net, dt)
        for flow in net.flows:
            flow.granted = 2 * flow.granted + 1.0

    monkeypatch.setattr(Network, "arbitrate", overgrant)
    _digest, problems = scenarios.fabric_verify(
        small_params("fabric-1000"), 0)
    assert any("> demand" in p for p in problems)
    assert any("> capacity" in p for p in problems)


def test_compare_verdicts():
    bench = run.load_benchmark()

    def runs(wall, failed=0):
        return [{"workload": w["name"], "trace": 0, "correct": True,
                 "attempted": 10, "failed": failed,
                 "metrics": {"wall_s": {"value": v}, "setup_s": {"value": 1.0},
                             "peak_rss_mib": {"value": 50.0}}}
                for w in bench["workloads"] for v in wall]

    base = runs([10.0, 10.1, 10.2, 10.3])
    lines, ok = compare.compare(base, runs([10.1, 10.2, 10.3, 10.4]), bench)
    assert ok and all("wall_s" in line and " ok |" in line for line in lines)
    lines, ok = compare.compare(base, runs([13.0, 13.2, 13.4, 13.6]), bench)
    assert not ok and " worse |" in lines[0]
    lines, ok = compare.compare(base, runs([5.0, 10.0, 20.0, 30.0]), bench)
    assert ok and " unresolved |" in lines[0]
    lines, ok = compare.compare(base, runs([10.0, 10.1, 10.2, 10.3], 1),
                                bench)
    assert not ok and "fail_ratio A 0.0000 B 0.1000 worse" in lines[0]


def test_fails_without_the_program(tmp_path):
    shutil.copytree(HERE, tmp_path / "bench",
                    ignore=shutil.ignore_patterns("out", "__pycache__"))
    shutil.copy(HERE.parent / "BENCHMARK.json", tmp_path)
    proc = subprocess.run(
        [sys.executable, "bench/run.py", "--workload", "fabric-1000",
         "--seed", "0", "--seconds", "1", "--trace", "0"],
        cwd=tmp_path, capture_output=True, text=True, timeout=120)
    assert proc.returncode != 0
    assert "correct" not in proc.stdout
