"""The no-op tracer and metrics registry are never called on a hot path.

A world built without a tracer or a metrics registry gets
:data:`~repro.obs.NULL_TRACER` and :data:`~repro.telemetry.NULL_METRICS`.
Every instrumentation site must test ``enabled`` before it touches them,
so an uninstrumented run pays one attribute check per site and nothing
more. This test wraps every method of :class:`NullTracer`,
:class:`NullRegistry` and :class:`NullInstrument` with a call counter
and runs the datacenter, single-VM migration, fleet and fabric churn
scenarios. Only ``World.__init__`` (set-up: it binds the clock) may call
them; any call after set-up fails the test, whatever it costs in time.
"""

import functools
import importlib.util
import json
from collections import Counter
from pathlib import Path

import pytest

from repro.cluster.world import World
from repro.experiments.datacenter import (
    DatacenterConfig,
    datacenter_run,
    honeypot_schedule,
)
from repro.experiments.fleet import fleet_run, quick_config
from repro.experiments.runners import single_vm_run
from repro.obs.tracer import NullTracer
from repro.telemetry.instruments import NullInstrument, NullRegistry

BENCH = Path(__file__).resolve().parents[1] / "bench"


def _churn_fabric():
    """A small fabric driven by the benchmark's churn recipe."""
    spec = importlib.util.spec_from_file_location("bench_fabric",
                                                  BENCH / "fabric.py")
    fabric = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(fabric)
    with open(BENCH / "workloads.json", encoding="utf-8") as fh:
        p = json.load(fh)["fabric-1000"]
    p = dict(p, n_azs=1, pods_per_az=2, racks_per_pod=2, hosts_per_rack=4,
             migration_slots=12, ticks=40)
    churn = fabric.Churn(p, seed=0)
    for tick in range(p["ticks"]):
        churn._step(tick)
        churn.net.arbitrate(p["dt"])


SCENARIOS = {
    "datacenter": lambda: datacenter_run(honeypot_schedule(),
                                         DatacenterConfig(), until=30.0),
    "agile": lambda: single_vm_run("agile", 2, busy=True),
    "pre-copy": lambda: single_vm_run("pre-copy", 2, busy=True),
    "fleet": lambda: fleet_run(quick_config()),
    "fabric": _churn_fabric,
}


@pytest.fixture
def null_calls(monkeypatch):
    """Count calls to every null-instrument method, split by whether a
    ``World.__init__`` is on the stack."""
    calls = {"setup": Counter(), "run": Counter()}
    depth = [0]

    def counted(name, fn):
        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            calls["setup" if depth[0] else "run"][name] += 1
            return fn(*args, **kwargs)
        return wrapper

    for cls in (NullTracer, NullRegistry, NullInstrument):
        for name, fn in list(vars(cls).items()):
            if callable(fn):
                monkeypatch.setattr(
                    cls, name, counted(f"{cls.__name__}.{name}", fn))

    world_init = World.__init__

    @functools.wraps(world_init)
    def init(self, *args, **kwargs):
        depth[0] += 1
        try:
            world_init(self, *args, **kwargs)
        finally:
            depth[0] -= 1

    monkeypatch.setattr(World, "__init__", init)
    return calls


@pytest.mark.parametrize("scenario", sorted(SCENARIOS))
def test_null_instruments_untouched_after_world_setup(null_calls, scenario):
    SCENARIOS[scenario]()
    assert null_calls["run"] == Counter(), (
        f"null instruments called outside set-up: {dict(null_calls['run'])}")
    assert set(null_calls["setup"]) <= {"NullTracer.bind_clock",
                                        "NullRegistry.bind_clock"}
    if scenario != "fabric":
        # the counters are live: each world bound the null clock
        assert null_calls["setup"]["NullTracer.bind_clock"] >= 1
