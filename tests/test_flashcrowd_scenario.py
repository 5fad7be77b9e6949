"""End-to-end flash-crowd scenario: the quick clone run exercises
snapshot + fork + hydration through the fleet scheduler, the ablation
separates the arms, and two same-seed runs are byte-identical —
placement log, serving log, clone log, and the exported trace."""

from dataclasses import replace

from repro.experiments.flashcrowd import (
    PARENT_MEMORY_BYTES,
    flashcrowd_ablation,
    flashcrowd_run,
    quick_config,
)
from repro.obs import Tracer, chrome_trace_doc, trace_to_jsonl
from repro.obs.check import missing_categories, validate_chrome_trace


def run_quick(tmp_path, tag, provision="clone"):
    tracer = Tracer()
    cfg = replace(quick_config(seed=0), provision=provision)
    res = flashcrowd_run(cfg, tracer=tracer)
    path = tmp_path / f"flashcrowd-{tag}.jsonl"
    trace_to_jsonl(tracer, path)
    return res, path, tracer


def test_quick_clone_run_reaches_target_via_forks(tmp_path):
    res, _, _ = run_quick(tmp_path, "life")
    c = res["counters"]
    fc = res["scenario"]
    # every hot replica booted as a clone fork, none full-copy
    assert c["cloned"] == fc.config.n_replicas
    assert fc.clone.counters["snapshots"] == 1
    assert fc.clone.counters["forks"] == fc.config.n_replicas
    assert fc.clone.counters["failed"] == 0
    assert res["time_to_n_serving"] is not None
    assert res["bytes_to_serving"] is not None
    # background churn ran alongside (identical in the fullcopy arm)
    assert c["booted"] > fc.config.n_replicas
    # every live clone replica is placed and accounted for
    for name in fc.clone.replicas:
        vm = fc.world.vms[name]
        assert fc.world.hosts[vm.host].memory.has_vm(name)


def test_same_seed_runs_are_byte_identical(tmp_path):
    res_a, trace_a, _ = run_quick(tmp_path, "a")
    res_b, trace_b, _ = run_quick(tmp_path, "b")
    assert res_a["placement_log"] == res_b["placement_log"]
    assert res_a["serving_log"] == res_b["serving_log"]
    assert res_a["clone_log"] == res_b["clone_log"]
    assert res_a["counters"] == res_b["counters"]
    assert res_a["time_to_n_serving"] == res_b["time_to_n_serving"]
    assert res_a["bytes_to_serving"] == res_b["bytes_to_serving"]
    assert trace_a.read_bytes() == trace_b.read_bytes()


def test_quick_trace_passes_the_obs_validator(tmp_path):
    _, _, tracer = run_quick(tmp_path, "obs")
    doc = chrome_trace_doc(tracer)
    assert validate_chrome_trace(doc) == []
    # clone provisioning emits under its own category, alongside the
    # fleet scheduler driving it and the VMD underneath
    required = ["clone", "fleet", "vmd", "umem"]
    assert missing_categories(doc, required) == []


def test_fullcopy_arm_serves_without_clones(tmp_path):
    res, _, _ = run_quick(tmp_path, "full", provision="fullcopy")
    assert res["counters"]["cloned"] == 0
    assert res["scenario"].clone is None
    assert res["time_to_n_serving"] is not None
    # each hot replica paid a full parent-memory stream
    fc = res["scenario"]
    assert len(fc.fullcopy.reports) == fc.config.n_replicas
    assert res["provision_bytes"] >= (fc.config.n_replicas
                                      * PARENT_MEMORY_BYTES
                                      - 1.0)


def test_ablation_clone_beats_fullcopy_on_time_and_bytes():
    res = flashcrowd_ablation(seed=0, quick=True)
    assert res["clone_wins_time"]
    assert res["clone_time"] < res["fullcopy_time"]
    # clones also moved fewer bytes to reach N serving
    assert res["clone_bytes"] < res["fullcopy_bytes"]
    # both arms saw the identical demand stream
    assert res["clone"]["arrivals"] == res["fullcopy"]["arrivals"]
    assert (res["clone"]["counters"]["submitted"]
            == res["fullcopy"]["counters"]["submitted"])
