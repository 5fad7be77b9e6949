"""Tests for migration reports, config, and the incoming image."""

import pytest

from repro.core.base import (
    BULK_PRIORITY,
    DEMAND_PRIORITY,
    IncomingImage,
    MigrationConfig,
    MigrationReport,
)
from repro.vm import VirtualMachine


def test_report_total_bytes_sums_all_channels():
    r = MigrationReport("agile", "vm0")
    r.precopy_bytes = 100.0
    r.stopcopy_bytes = 10.0
    r.push_bytes = 20.0
    r.demand_bytes = 5.0
    r.metadata_bytes = 1.0
    assert r.total_bytes == 136.0


def test_report_total_time_requires_end():
    r = MigrationReport("pre-copy", "vm0", start_time=10.0)
    assert r.total_time is None
    r.end_time = 35.0
    assert r.total_time == 25.0


def test_config_defaults_sane():
    cfg = MigrationConfig()
    assert DEMAND_PRIORITY < BULK_PRIORITY
    assert cfg.backlog_cap_bytes > 0
    assert cfg.max_rounds >= 1


def test_incoming_image_mirrors_vm_geometry():
    vm = VirtualMachine("vm7", 64 * 4096, page_size=4096)
    image = IncomingImage(vm)
    assert image.name == "vm7.incoming"
    assert image.pages.n_pages == vm.n_pages
    assert image.pages.page_size == vm.pages.page_size
    # a fresh, empty destination address space
    assert image.pages.allocated_pages() == 0


def test_migration_progress_series_recorded():
    from tests.test_migration import make_lab

    lab = make_lab("agile", vm_mib=16, reservation_mib=32)
    lab.run_until_migrated(start=2.0, limit=200.0)
    series = lab.world.recorder.series("migration.vm0.bytes")
    assert len(series) > 3
    # cumulative bytes are monotone non-decreasing
    import numpy as np
    assert np.all(np.diff(series.v) >= 0)
    assert series.v[-1] == pytest.approx(lab.report.total_bytes, rel=0.01)
