"""The network arbiter against the reference oracle at fabric scale.

This drives the repository benchmark's own churn recipe
(``bench/fabric.py``'s :class:`Churn`, the fabric ``fabric-1000`` times)
and checks every tick twice: the grants must pass the max-min bottleneck
certificate (:func:`repro.net.maxmin_violations`), and each must agree
with the progressive-filling oracle (``tests/net_reference.py``) to rel
1e-9 (abs 1e-6 B). Two shapes run:

* a 32-host three-tier fabric for 120 ticks, with the benchmark's
  churn, partition and degradation rates;
* the ``fabric-1000`` parameters from ``bench/workloads.json`` with 100
  migration slots, 4 fan-in lanes per host and 30 ticks. The oracle is
  quadratic: on a 2-vCPU VM it takes ≈8–13 s per tick at this size,
  so CI runs this shape once, as its own step.
"""

from __future__ import annotations

import importlib.util
import json
import math
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parents[1]
if str(ROOT) not in sys.path:
    sys.path.insert(0, str(ROOT))  # for tests.net_reference

from repro.net import maxmin_violations  # noqa: E402
from repro.net.certificate import ABS_TOL, REL_TOL  # noqa: E402
from tests.net_reference import reference_grants  # noqa: E402


def _load_churn():
    spec = importlib.util.spec_from_file_location(
        "bench_fabric", ROOT / "bench" / "fabric.py")
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module.Churn


Churn = _load_churn()
with open(ROOT / "bench" / "workloads.json", encoding="utf-8") as _fh:
    FABRIC_1000 = json.load(_fh)["fabric-1000"]

#: 2 AZs x 2 pods x 2 racks x 4 hosts = 32 hosts, 120 ticks
QUICK = dict(FABRIC_1000, n_azs=2, pods_per_az=2, racks_per_pod=2,
             hosts_per_rack=4, migration_slots=24, ticks=120)
#: the 1000-host fabric at a size the oracle can follow
TIER3 = dict(FABRIC_1000, migration_slots=100, fanin_lanes=4, ticks=30)


def check_every_tick(p: dict, seed: int = 0) -> Churn:
    """Run the churn, checking each tick's grants; returns the churn."""
    churn = Churn(p, seed)
    net, dt = churn.net, p["dt"]
    for tick in range(p["ticks"]):
        churn._step(tick)
        demands = [(f, f.demand) for f in net.flows]
        net.arbitrate(dt)
        problems = maxmin_violations(net, demands, dt)
        assert not problems, (tick, problems[:5])
        oracle = reference_grants(net, demands, dt)
        for f, _ in demands:
            want = oracle.get(f, 0.0)
            assert math.isclose(f.granted, want, rel_tol=REL_TOL,
                                abs_tol=ABS_TOL), (
                f"tick {tick}: {f.name} granted {f.granted!r}, "
                f"oracle {want!r}")
    return churn


def test_oracle_agrees_every_tick_on_a_32_host_fabric():
    churn = check_every_tick(QUICK)
    assert len(churn.hosts) >= 32
    # slots expired and reopened, so flows opened and closed mid-run
    assert churn.migrations > QUICK["migration_slots"]


def test_oracle_agrees_every_tick_on_the_1000_host_fabric():
    churn = check_every_tick(TIER3)
    assert len(churn.hosts) == 1000
    assert churn.migrations > TIER3["migration_slots"]
