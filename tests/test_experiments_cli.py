"""Smoke tests for the experiments CLI (arg handling, no heavy runs)."""

import pytest

from repro.experiments.__main__ import main, sparkline
from repro.metrics import TimeSeries


def test_unknown_experiment_rejected():
    with pytest.raises(SystemExit):
        main(["nope"])


def test_help_exits_cleanly(capsys):
    with pytest.raises(SystemExit) as exc:
        main(["--help"])
    assert exc.value.code == 0
    out = capsys.readouterr().out
    assert "fig7" in out and "tab2" in out


def test_sparkline_shape():
    ts = TimeSeries()
    for i in range(100):
        ts.append(float(i), float(i))
    line = sparkline(ts, 100.0, width=20)
    assert len(line) == 20
    # monotone series: the last block is the densest
    assert line[-1] == "@"


def test_runners_importable():
    from repro.experiments import pressure_run, single_vm_run, wss_run
    assert callable(pressure_run)
    assert callable(single_vm_run)
    assert callable(wss_run)


def test_dc_quick_trace_chrome(tmp_path, capsys):
    import json

    from repro.obs.check import missing_categories, validate_chrome_trace
    out = tmp_path / "dc.json"
    assert main(["dc", "--quick", "--trace", str(out)]) == 0
    assert "trace:" in capsys.readouterr().out
    doc = json.loads(out.read_text())
    assert validate_chrome_trace(doc) == []
    assert missing_categories(
        doc, ["migration", "phase", "planner", "fault", "vmd", "net"]) == []


def test_dc_quick_trace_jsonl(tmp_path):
    import json
    out = tmp_path / "dc.jsonl"
    assert main(["dc", "--quick", "--trace", str(out)]) == 0
    recs = [json.loads(line) for line in out.read_text().splitlines()]
    assert recs
    assert all({"t", "ph", "track", "name"} <= rec.keys() for rec in recs)


def test_trace_rejected_for_sweeps(tmp_path, capsys, monkeypatch):
    # the heavy run itself is stubbed out: only --trace handling matters
    import repro.experiments.__main__ as cli
    monkeypatch.setattr(cli, "cmd_table", lambda *a, **kw: None)
    out = tmp_path / "nope.json"
    assert cli.main(["tab2", "--trace", str(out)]) == 0
    assert "not supported" in capsys.readouterr().out
    assert not out.exists()


@pytest.mark.parametrize("argv,ignored", [
    (["fig6"], ["metrics"]),
    (["fig10"], ["metrics"]),
    (["fig7"], ["trace", "metrics"]),
    (["tab3"], ["trace", "metrics"]),
    (["fleet", "--ablate"], ["trace", "metrics"]),
    (["flashcrowd", "--ablate"], ["trace", "metrics"]),
    (["slo", "--ablate"], ["trace", "metrics"]),
])
def test_unsupported_export_flags_are_noted_and_dropped(
        argv, ignored, tmp_path, capsys, monkeypatch):
    # the runs themselves are stubbed out: only flag handling matters
    import repro.experiments.__main__ as cli
    from repro.obs.tracer import Tracer
    from repro.telemetry import MetricsRegistry
    calls = []
    for name in ("cmd_timeline", "cmd_sweep", "cmd_table", "cmd_wss",
                 "cmd_fleet", "cmd_flashcrowd", "cmd_slo"):
        monkeypatch.setattr(cli, name,
                            lambda *a, **kw: calls.append((a, kw)) or 0)
    paths = {"trace": tmp_path / "t.json", "metrics": tmp_path / "m.jsonl"}
    assert cli.main([*argv, "--trace", str(paths["trace"]),
                     "--metrics", str(paths["metrics"])]) == 0
    out = capsys.readouterr().out
    run = " ".join(argv)
    for flag, path in paths.items():
        noted = f"note: --{flag} is not supported for {run} ("
        assert (noted in out) == (flag in ignored)
        if flag in ignored:
            assert not path.exists()
    (args, kwargs), = calls
    live = [v for v in (*args, *kwargs.values())
            if isinstance(v, (Tracer, MetricsRegistry))]
    assert [type(v) for v in live] == \
        ([Tracer] if "trace" not in ignored else [])


def test_fleet_quick_trace_chrome(tmp_path, capsys):
    import json

    from repro.obs.check import missing_categories, validate_chrome_trace
    out = tmp_path / "fleet.json"
    assert main(["fleet", "--quick", "--trace", str(out)]) == 0
    stdout = capsys.readouterr().out
    assert "fleet:" in stdout
    doc = json.loads(out.read_text())
    assert validate_chrome_trace(doc) == []
    assert missing_categories(
        doc, ["fleet", "planner", "migration", "vmd"]) == []


def test_fleet_ablation_gate_passes(capsys):
    assert main(["fleet", "--ablate", "--quick"]) == 0
    out = capsys.readouterr().out
    assert "gate ok" in out
    assert "greedy" in out and "swap" in out


def test_fleet_greedy_strategy_runs(capsys):
    assert main(["fleet", "--quick", "--strategy", "greedy"]) == 0
    assert "fleet:" in capsys.readouterr().out


def test_flashcrowd_quick_trace_chrome(tmp_path, capsys):
    import json

    from repro.obs.check import missing_categories, validate_chrome_trace
    out = tmp_path / "flashcrowd.json"
    assert main(["flashcrowd", "--quick", "--trace", str(out)]) == 0
    stdout = capsys.readouterr().out
    assert "clone:" in stdout and "serving" in stdout
    doc = json.loads(out.read_text())
    assert validate_chrome_trace(doc) == []
    assert missing_categories(doc, ["clone", "fleet", "vmd"]) == []


def test_flashcrowd_ablation_gate_passes(capsys):
    assert main(["flashcrowd", "--ablate", "--quick"]) == 0
    out = capsys.readouterr().out
    assert "gate ok" in out
    assert "clone" in out and "fullcopy" in out


def test_flashcrowd_json_export(tmp_path, capsys):
    import json
    out = tmp_path / "fc.json"
    assert main(["flashcrowd", "--quick", "--json", str(out)]) == 0
    doc = json.loads(out.read_text())
    assert doc["provision"] == "clone"
    assert doc["time_to_n_serving"] is not None
    assert doc["counters"]["cloned"] > 0


def test_flashcrowd_fullcopy_arm_runs(capsys):
    assert main(["flashcrowd", "--quick", "--provision",
                 "fullcopy"]) == 0
    assert "fullcopy" in capsys.readouterr().out
