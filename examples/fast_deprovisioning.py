#!/usr/bin/env python
"""Fast server deprovisioning with Scatter-Gather migration.

Extension demo: the source host must be evacuated *now* (maintenance,
spot reclaim). Direct migration is paced by the destination; the
Scatter-Gather engine (the Agile authors' companion system) instead
stages the VM's resident pages onto VMD intermediaries at source-NIC
speed and lets the destination gather them in the background — the
source is free in a fraction of the time.

Run:  python examples/fast_deprovisioning.py
"""

from repro.cluster.scenarios import TestbedConfig, make_single_vm_lab
from repro.util import GiB


def evacuate(technique: str) -> tuple[float, float]:
    """Returns (seconds until the source is free, GiB moved)."""
    # scatter-gather prefetches in the background at its default 40 MB/s
    lab = make_single_vm_lab(technique, 10 * GiB, busy=True,
                             config=TestbedConfig(seed=9))
    lab.run_until_migrated(start=30.0, limit=4000.0, settle=30.0)
    r = lab.report
    freed = (r.source_free_time or r.end_time) - r.start_time
    if technique == "scatter-gather":
        print(f"    gather continues in the background: "
              f"{r.gather_bytes / GiB:.2f} GiB prefetched so far; "
              f"{lab.migrate_vm.pages.swapped_pages()} pages still cold")
    return freed, r.total_bytes / GiB


def main() -> None:
    print("Evacuating a busy 10 GiB VM from a 6 GB host:\n")
    for technique in ("agile", "scatter-gather"):
        print(f"  {technique}:")
        freed, gib = evacuate(technique)
        print(f"    source free after {freed:6.1f} s "
              f"({gib:.2f} GiB over the wire)\n")


if __name__ == "__main__":
    main()
