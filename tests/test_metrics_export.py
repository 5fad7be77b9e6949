"""Tests for metrics export (report dicts, fault-log CSV)."""

import csv
import json

from repro.core.base import MigrationReport
from repro.faults import FaultLog
from repro.metrics import fault_log_to_csv, report_to_dict


def test_report_to_dict_includes_derived_fields():
    rep = MigrationReport("agile", "vm0", start_time=1.0)
    rep.end_time = 11.0
    rep.precopy_bytes = 100.0
    rep.metadata_bytes = 1.0
    d = report_to_dict(rep)
    assert d["technique"] == "agile"
    assert d["total_bytes"] == 101.0
    assert d["total_time"] == 10.0
    json.dumps(d)  # must be JSON-serializable


def test_csv_roundtrip_preserves_float_precision(tmp_path):
    log = FaultLog()
    log.record(1 / 3, "inject", "host-crash", "h0")  # repr() round-trips
    path = fault_log_to_csv(log, tmp_path / "p.csv")
    header, row = list(csv.reader(path.open()))
    assert header == ["t", "action", "kind", "target", "detail"]
    assert float(row[0]) == 1 / 3
    assert row[1:] == ["inject", "host-crash", "h0", ""]
