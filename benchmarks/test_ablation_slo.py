"""Ablation: SLO-aware vs blind VM selection under a watermark alert.

The SLO scenario (``repro.experiments.slo``) overloads one host with a
serving KV tenant (attached throughput SLO) and two SLO-free batch VMs.
When the watermark trigger fires, the blind arm's largest-first
selector sheds the serving tenant — the biggest VM — and the tenant's
violation-seconds ledger records the migration's degradation window,
attributed to the in-flight attempt by phase. The aware arm's selector
(:func:`repro.telemetry.slo_aware_selector`) sheds the batch VMs first:
one more migration, zero violation windows.

Both arms share the cluster, workload, watermark, and seed; only the
trigger's selection policy differs. Runs are deterministic, so the
assertions are exact:

* the blind arm accrues violation-seconds and attributes them to the
  serving tenant's own migration (the CI gate's premise);
* the aware arm accrues strictly fewer (zero here) — the CI gate;
* both arms settle the hot host below the low-watermark target, so the
  aware arm is not winning by refusing to shed.
"""

from conftest import run_once
from repro.experiments.slo import WATERMARK, SloScenarioConfig, slo_ablation

_cache: dict = {}


def run_pair() -> dict:
    if not _cache:
        _cache.update(slo_ablation(until=15.0))
    return _cache


def test_slo_aware_selection_ablation(benchmark, emit):
    pair = run_once(benchmark, run_pair)
    aware, blind = pair["aware"], pair["blind"]

    emit("", "Ablation — SLO-aware vs blind shedding (watermark alert "
         "on a serving host)",
         f"  {'':26s}{'aware':>10s}{'blind':>10s}")
    rows = [
        ("violation-seconds", f"{aware['violation_s']:10g}",
         f"{blind['violation_s']:10g}"),
        ("migrations", f"{sum(aware['outcomes'].values()):10d}",
         f"{sum(blind['outcomes'].values()):10d}"),
        ("serving tenant moved", f"{'srv0' in aware['migrated']!s:>10s}",
         f"{'srv0' in blind['migrated']!s:>10s}"),
    ]
    for label, a, b in rows:
        emit(f"  {label:<26s}{a}{b}")
    if blind["attribution"]:
        emit(f"  blind attribution: {blind['attribution']}")

    # the premise: blind shedding makes the serving tenant pay, and the
    # ledger knows which migration attempt to bill
    assert blind["violation_s"] > 0
    assert blind["migrated"] == ["srv0"]
    causes = blind["attribution"]["srv0"]
    assert all(c.startswith("srv0#a0:") for c in causes)
    # the CI gate, strict: the aware selector cuts violation-seconds
    assert aware["violation_s"] < blind["violation_s"]
    assert pair["delta_violation_s"] > 0
    # and it does so by moving the SLO-free VMs, not by doing nothing
    assert aware["migrated"] == ["b0", "b1"]
    assert aware["outcomes"] == {"completed": 2}

    # both arms fully relieved the hot host (same low-watermark target)
    cfg = SloScenarioConfig()
    usable = cfg.host_memory_bytes - cfg.host_os_bytes
    target = WATERMARK.low_watermark * usable
    for arm in (aware, blind):
        host = arm["lab"].world.hosts["r0h0"]
        left = sum(host.memory.binding(n).cgroup.reservation_bytes
                   for n in host.vms)
        assert left <= target
