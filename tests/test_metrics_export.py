"""Tests for metrics export (report dicts)."""

import json

from repro.core.base import MigrationReport
from repro.metrics import report_to_dict


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

