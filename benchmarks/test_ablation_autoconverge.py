"""Ablation: pre-copy auto-converge (vCPU throttling, §VI's SDPS).

§VI notes that VMware's SDPS "slows down vCPUs to speed up migration of
write-intensive VMs, [but] degrades the application performance further
during migration". We reproduce that trade-off: against a
write-everywhere guest, auto-converge bounds pre-copy's transfer volume
— at the cost of the guest's throughput — while Agile needs neither.
"""

from functools import partial

from conftest import run_once
from repro.cluster.scenarios import (
    TestbedConfig,
    make_single_vm_lab,
    scale_params_to_page,
)
from repro.core import PrecopyMigration
from repro.util import GiB
from repro.workloads.kv import ycsb_redis_params


def run(technique, auto_converge=False):
    cfg = TestbedConfig(seed=0)
    lab = make_single_vm_lab(technique, 5 * GiB, busy=True, config=cfg)
    if auto_converge:
        lab.engine = partial(PrecopyMigration, auto_converge=True)
    wl = lab.workloads[0]
    wl.params = scale_params_to_page(
        ycsb_redis_params(write_fraction=1.0, write_region_fraction=1.0),
        cfg.page_size)
    lab.run_until_migrated(start=30.0, limit=6000.0)
    tput = lab.world.recorder.series("vm0.throughput")
    r = lab.report
    return {
        "report": r,
        "ops_during": tput.between(r.start_time, r.end_time).mean(),
    }


def test_autoconverge_tradeoff(benchmark, emit):
    results = run_once(benchmark, lambda: {
        "pre-copy": run("pre-copy", auto_converge=False),
        "pre-copy+ac": run("pre-copy", auto_converge=True),
        "agile": run("agile"),
    })
    lines = ["", "Ablation — auto-converge vs Agile on a write-everywhere "
                 "guest (5 GiB VM):"]
    for name, res in results.items():
        r = res["report"]
        lines.append(
            f"  {name:<12s} time {r.total_time:7.1f} s  data "
            f"{r.total_bytes / GiB:6.2f} GiB  rounds {r.rounds:2d}  "
            f"guest {res['ops_during']:8.0f} ops/s during migration")
    emit(*lines)

    plain = results["pre-copy"]
    ac = results["pre-copy+ac"]
    agile = results["agile"]
    # throttling bounds the transfer...
    assert ac["report"].total_bytes < plain["report"].total_bytes
    # ...but hurts the guest (the §VI criticism)
    assert ac["ops_during"] < plain["ops_during"]
    # Agile gets a bounded transfer AND an unthrottled guest
    assert agile["report"].total_bytes < plain["report"].total_bytes
    assert agile["ops_during"] > ac["ops_during"]
