"""Ablation: how fast does each technique free the *source*?

The paper's framing of agility is "eliminate resource pressure faster
than traditional live migration" (§I). The source's pressure is gone
when its copy of the VM's memory is freed. We compare the three paper
techniques against the extension Scatter-Gather engine (the authors'
companion system [22]), which stages pages on the VMD intermediaries at
full source speed instead of pushing them to the destination.
"""

from conftest import run_once
from repro.cluster.scenarios import TestbedConfig, make_single_vm_lab
from repro.util import GiB


def source_free_time(technique):
    lab = make_single_vm_lab(technique, 10 * GiB, busy=True,
                             config=TestbedConfig(seed=0))
    lab.run_until_migrated(start=30.0, limit=6000.0)
    r = lab.report
    freed = (r.source_free_time if r.source_free_time is not None
             else r.end_time)
    return freed - r.start_time, r


def test_source_relief_comparison(benchmark, emit):
    techniques = ["pre-copy", "post-copy", "agile", "scatter-gather"]
    results = run_once(benchmark,
                       lambda: {t: source_free_time(t) for t in techniques})
    lines = ["", "Ablation — time until the source is free of the VM "
                 "(10 GiB busy VM, 6 GB host):"]
    for t in techniques:
        freed, r = results[t]
        lines.append(f"  {t:<15s} {freed:7.1f} s "
                     f"(transfer {r.total_bytes / GiB:5.2f} GiB)")
    emit(*lines)
    freed = {t: results[t][0] for t in techniques}
    # Agile relieves the source before the baselines; Scatter-Gather is
    # at least as fast as Agile (it skips the destination entirely).
    assert freed["agile"] < freed["post-copy"] < freed["pre-copy"]
    assert freed["scatter-gather"] <= freed["agile"] * 1.2
