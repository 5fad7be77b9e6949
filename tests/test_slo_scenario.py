"""The SLO-aware shedding scenario: selection, attribution, and the
determinism of its metrics exports."""

import json

from repro.experiments.slo import (
    WATERMARK,
    SloScenarioConfig,
    make_slo,
    slo_run,
)
from repro.obs.export import trace_to_chrome
from repro.obs.tracer import Tracer
from repro.telemetry import MetricsRegistry, metrics_to_jsonl

UNTIL = 15.0


def test_blind_selector_sheds_the_serving_tenant():
    res = slo_run(blind=True, until=UNTIL)
    assert res["migrated"] == ["srv0"]
    assert res["outcomes"] == {"completed": 1}
    # the tenant pays: violation windows accrued, attributed to its own
    # in-flight migration (phase-classified, not "unattributed")
    assert res["violation_s"] > 0
    causes = res["attribution"]["srv0"]
    assert all(c.startswith("srv0#a0:") for c in causes)
    assert res["violation_s"] == sum(causes.values())


def test_aware_selector_protects_the_serving_tenant():
    res = slo_run(blind=False, until=UNTIL)
    # both SLO-free batch VMs move instead of the serving tenant
    assert res["migrated"] == ["b0", "b1"]
    assert res["outcomes"] == {"completed": 2}
    assert res["violation_s"] == 0.0
    assert res["attribution"] == {}


def test_aware_beats_blind_on_violation_seconds():
    aware = slo_run(blind=False, until=UNTIL)
    blind = slo_run(blind=True, until=UNTIL)
    assert aware["violation_s"] < blind["violation_s"]


def test_watermark_settles_below_target_in_both_arms():
    cfg = SloScenarioConfig()
    usable = cfg.host_memory_bytes - cfg.host_os_bytes
    target = WATERMARK.low_watermark * usable
    for blind in (False, True):
        lab = slo_run(blind=blind, until=UNTIL)["lab"]
        host = lab.world.hosts["r0h0"]
        left = sum(host.memory.binding(n).cgroup.reservation_bytes
                   for n in host.vms)
        assert left <= target


def test_same_seed_metrics_export_byte_identical(tmp_path):
    paths = []
    for i in range(2):
        reg = MetricsRegistry()
        res = slo_run(blind=True, until=UNTIL, metrics=reg)
        assert res["violation_s"] > 0
        paths.append(metrics_to_jsonl(reg, tmp_path / f"m{i}.jsonl"))
    b0, b1 = (p.read_bytes() for p in paths)
    assert b0 == b1
    # every line is valid JSON and the header counts the instruments
    lines = b0.decode().splitlines()
    header = json.loads(lines[0])
    assert header["instruments"] == len(lines) - 1
    names = [json.loads(ln)["name"] for ln in lines[1:]]
    assert names == sorted(names)
    assert any(n.startswith("slo.") for n in names)
    assert any(n.startswith("pressure.") for n in names)
    assert any(n.startswith("migration.") for n in names)


def test_traced_run_emits_telemetry_and_slo_categories(tmp_path):
    tracer = Tracer()
    slo_run(blind=True, until=UNTIL, tracer=tracer)
    tracer.finish()
    path = trace_to_chrome(tracer, tmp_path / "t.json")
    doc = json.loads(path.read_text())
    cats = {ev.get("cat") for ev in doc["traceEvents"]}
    assert {"telemetry", "slo", "migration", "planner"} <= cats
    from repro.obs.check import validate_chrome_trace
    assert validate_chrome_trace(doc) == []


def test_pressure_relief_visible_in_index():
    reg = MetricsRegistry()
    lab = make_slo(metrics=reg)
    lab.run(until=UNTIL)
    hot = reg.get("pressure.host.r0h0")
    # shedding two VMs must drop the hot host's pressure from its peak
    assert hot.series.v.max() > hot.value
    # rack and cluster rollups exist and bound each other sanely
    assert 0.0 <= reg.get("pressure.cluster").value <= 1.0
    assert set(lab.pressure.racks) == {"r0", "r1"}
