"""Set-up/run timing and per-layer attribution, applied from outside.

Nothing here edits the program: :class:`Probe` wraps ``World.run`` to
find the first tick of each simulation (the end of set-up), and
:class:`LayerTracer` replaces public methods of the program's classes
with timing wrappers for the duration of one traced episode.

Self time is a span's duration minus the time of the wrapped spans it
caused. Spans are aggregated into ``(layer, parent layer)`` cells, so a
run of millions of calls keeps a few dozen numbers. A call into a layer
from inside the same layer (a subclass calling ``super()``) is merged
into the outer span.
"""

from __future__ import annotations

import functools
import importlib
import time

CLOCK = time.perf_counter

#: root layer: run time spent outside every wrapped method
SIM = "sim"
#: ticks kept span by span for the Chrome trace, and a cap on its spans
WINDOW_TICKS = 20
MAX_EVENTS = 200_000


def _evict_counts(counts, args, result):
    # lru_candidates does not change residency, so reading it after the
    # call gives the resident pages the call scanned
    counts["mem.evict.returned"] += len(result)
    counts["mem.evict.scanned"] += args[0].resident_pages()


def _sample_counts(counts, args, result):
    counts["workloads.sample.scanned"] += args[1].size
    if not isinstance(result, float):  # sample(); class_probability returns a float
        counts["workloads.sample.returned"] += len(result)


def _arbitrate_counts(counts, args, result):
    counts["net.flows_open"] += len(args[0].flows)


#: layer -> ((module, class, methods), ...) and an optional counter hook.
#: Subclasses that override a listed method are wrapped too.
LAYERS = {
    "mem.evict": ((("repro.mem.pages", "PageSet", ("lru_candidates",)),),
                  _evict_counts),
    "workloads.sample": ((("repro.workloads.distribution",
                           "AccessDistribution",
                           ("sample", "class_probability")),),
                         _sample_counts),
    "workloads.tick": ((("repro.workloads.base", "Workload",
                         ("pre_tick", "commit_tick")),
                        ("repro.workloads.idle", "IdleWorkload",
                         ("pre_tick", "commit_tick"))), None),
    "mem.manager": ((("repro.mem.manager", "HostMemoryManager",
                      ("pre_tick", "commit_tick")),), None),
    "mem.fault_in": ((("repro.mem.manager", "HostMemoryManager",
                       ("fault_in",)),), None),
    "mem.device": ((("repro.mem.device", "SSDSwapDevice",
                     ("arbitrate",)),), None),
    "mem.cpu": ((("repro.mem.cpu", "CpuArbiter", ("arbitrate",)),), None),
    "net.arbitrate": ((("repro.net.network", "Network", ("arbitrate",)),),
                      _arbitrate_counts),
    "vmd": ((("repro.vmd.namespace", "VMDNamespace",
              ("pre_tick", "commit_tick", "arbitrate")),), None),
    "core.engine": ((("repro.core.base", "MigrationManager",
                      ("pre_tick", "commit_tick")),), None),
    "fleet.hostview": ((("repro.fleet.hostview", "FleetHostView",
                         ("refresh",)),), None),
    "fleet.pipeline": ((("repro.fleet.pipeline", "PlacementPipeline",
                         ("select",)),), None),
    "fleet.scheduler": ((("repro.fleet.service", "FleetScheduler",
                          ("submit", "depart", "decommission")),), None),
    "sched.planner": ((("repro.sched.planner", "MigrationPlanner",
                        ("pump", "request")),), None),
    "metrics.record": ((("repro.metrics.recorder", "Recorder",
                         ("record",)),), None),
}


def _defining_classes(base: type, method: str) -> list[type]:
    """``base`` and every loaded subclass whose own body defines ``method``."""
    found, todo = [], [base]
    while todo:
        cls = todo.pop()
        if method in vars(cls) and cls not in found:
            found.append(cls)
        todo.extend(cls.__subclasses__())
    return found


class LayerTracer:
    """In-memory span stack over the methods named in :data:`LAYERS`.

    Spans are counted only between :meth:`start` and :meth:`stop`, so
    set-up work never lands in a layer. Spans of the :data:`WINDOW_TICKS`
    ticks from ``window_tick`` on, in the first run that gets that far,
    are also kept one by one for a Chrome trace; a tick is one
    ``Network.arbitrate`` call, which the tick protocol makes once per
    tick.
    """

    def __init__(self, window_tick: int = 0):
        self.cells: dict[tuple[str, str], list] = {}
        self.counts: dict[str, float] = {
            "mem.evict.returned": 0, "mem.evict.scanned": 0,
            "workloads.sample.returned": 0, "workloads.sample.scanned": 0,
            "net.flows_open": 0}
        self.events: list[tuple[str, str, float, float]] = []
        self.active = False
        self._stack: list[list] = []
        self._patched: list[tuple[type, str, object]] = []
        self._window = (window_tick, window_tick + WINDOW_TICKS)
        self._ticks = 0
        self._recording = False
        self._window_done = False
        self._t_base = 0.0

    # -- installation ----------------------------------------------------------
    def install(self) -> None:
        for layer, (targets, hook) in LAYERS.items():
            for module, name, methods in targets:
                base = getattr(importlib.import_module(module), name)
                for method in methods:
                    for cls in _defining_classes(base, method):
                        original = vars(cls)[method]
                        self._patched.append((cls, method, original))
                        setattr(cls, method, self._wrap(original, layer, hook))

    def uninstall(self) -> None:
        for cls, method, original in reversed(self._patched):
            setattr(cls, method, original)
        self._patched.clear()

    # -- run window --------------------------------------------------------------
    def start(self, now: float) -> None:
        self.active = True
        self._stack.clear()
        self._ticks = 0
        self._t_base = now

    def stop(self) -> None:
        self.active = False
        if self._recording:
            self._recording = False
            self._window_done = True

    def _tick(self) -> None:
        self._ticks += 1
        if self._window_done:
            return
        lo, hi = self._window
        if self._ticks == lo:
            self._recording = True
        elif self._ticks >= hi and self._recording:
            self._recording = False
            self._window_done = True

    # -- the wrapper -------------------------------------------------------------
    def _wrap(self, fn, layer: str, hook):
        tracer = self
        cells = self.cells
        counts = self.counts
        stack = self._stack
        is_tick = layer == "net.arbitrate"

        @functools.wraps(fn)
        def span(*args, **kwargs):
            if not tracer.active or (stack and stack[-1][0] == layer):
                return fn(*args, **kwargs)
            parent = stack[-1][0] if stack else SIM
            frame = [layer, 0.0]
            stack.append(frame)
            t0 = CLOCK()
            try:
                result = fn(*args, **kwargs)
            finally:
                dur = CLOCK() - t0
                stack.pop()
                if stack:
                    stack[-1][1] += dur
                cell = cells.get((layer, parent))
                if cell is None:
                    cell = cells[(layer, parent)] = [0, 0.0]
                cell[0] += 1
                cell[1] += dur - frame[1]
                if tracer._recording and len(tracer.events) < MAX_EVENTS:
                    tracer.events.append(
                        (layer, parent, t0 - tracer._t_base, dur))
            if hook is not None:
                hook(counts, args, result)
            if is_tick:
                tracer._tick()
            return result

        return span

    # -- results -----------------------------------------------------------------
    def layer_totals(self) -> dict[str, list]:
        """``layer -> [calls, self_s]`` summed over parent layers."""
        totals = {layer: [0, 0.0] for layer in LAYERS}
        for (layer, _parent), (calls, self_s) in self.cells.items():
            totals[layer][0] += calls
            totals[layer][1] += self_s
        return totals

    def metrics(self, wall_s: float, ticks: int) -> dict[str, float]:
        """Per-layer calls, self time and share of ``wall_s``; ratios.

        ``sim`` is the run time outside every wrapped layer: the event
        kernel, the tick loop and unwrapped code.
        """
        out: dict[str, float] = {}
        inside = 0.0
        totals = self.layer_totals()
        for layer, (calls, self_s) in totals.items():
            out[f"{layer}.calls"] = calls
            out[f"{layer}.self_s"] = self_s
            out[f"{layer}.share_pct"] = 100.0 * self_s / wall_s
            inside += self_s
        out["sim.ticks"] = ticks
        out["sim.self_s"] = wall_s - inside
        out["sim.share_pct"] = 100.0 * (wall_s - inside) / wall_s
        c = self.counts
        for layer in ("mem.evict", "workloads.sample"):
            scanned = c[f"{layer}.scanned"]
            out[f"{layer}.scan_ratio"] = (c[f"{layer}.returned"] / scanned
                                          if scanned else 0.0)
        arbitrations = totals["net.arbitrate"][0]
        out["net.flows_open"] = (c["net.flows_open"] / arbitrations
                                 if arbitrations else 0.0)
        return out

    def chrome_trace(self) -> dict:
        """The recorded window in Chrome's trace-event format."""
        return {"displayTimeUnit": "ms", "traceEvents": [
            {"name": layer, "cat": parent, "ph": "X", "pid": 1, "tid": 1,
             "ts": round(t0 * 1e6, 3), "dur": round(dur * 1e6, 3),
             "args": {"parent": parent}}
            for layer, parent, t0, dur in self.events]}


class SetupDone(Exception):
    """Raised at a simulation's first tick when only set-up is timed."""


class Probe:
    """Splits each public call into set-up and run time.

    Use as a context manager: while installed, ``World.run`` reports
    the first tick of each world. A benchmark-owned simulation without
    a ``World`` calls :meth:`begin_run` itself. With ``setup_only`` the
    first tick raises :class:`SetupDone`, so set-up can be timed
    repeatedly without running the simulation.
    """

    def __init__(self, tracer: LayerTracer | None = None,
                 setup_only: bool = False):
        self.tracer = tracer
        self.setup_only = setup_only
        self.setup_s = 0.0
        self.wall_s = 0.0
        self.ticks = 0
        self._t_run: float | None = None
        self._tick_fn = None
        self._world_run = None

    def __enter__(self) -> "Probe":
        from repro.cluster.world import World
        original = World.run
        probe = self

        @functools.wraps(original)
        def run(world, until):
            probe.begin_run(lambda: world.engine.tick_index)
            return original(world, until)

        self._world_run = original
        World.run = run
        if self.tracer is not None:
            self.tracer.install()
        return self

    def __exit__(self, *exc) -> None:
        from repro.cluster.world import World
        if self.tracer is not None:
            self.tracer.uninstall()
        World.run = self._world_run

    def begin_run(self, tick_fn) -> None:
        """Mark the first tick of the current call (later calls no-op)."""
        if self._t_run is not None:
            return
        now = CLOCK()
        self._t_run = now
        if self.setup_only:
            raise SetupDone
        self._tick_fn = tick_fn
        if self.tracer is not None:
            self.tracer.start(now)

    def call(self, fn, *args, **kwargs):
        """``fn(*args, **kwargs)``, its set-up and run time accumulated.

        Returns None when ``setup_only`` stopped it at the first tick.
        """
        self._t_run = None
        t0 = CLOCK()
        try:
            result = fn(*args, **kwargs)
        except SetupDone:
            self.setup_s += self._t_run - t0
            return None
        finally:
            t1 = CLOCK()
            if self.tracer is not None:
                self.tracer.stop()
        if self._t_run is None:
            raise RuntimeError(f"{fn.__name__} never started a simulation")
        self.setup_s += self._t_run - t0
        self.wall_s += t1 - self._t_run
        self.ticks += self._tick_fn()
        return result
