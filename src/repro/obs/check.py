"""Chrome trace-event schema check (used by CI on emitted traces).

Validates the structural contract of a trace document — required keys,
known phases, balanced B/E nesting per thread, paired async ids — and
optionally that required event *categories* are present (CI asserts the
datacenter trace carries migration-phase, planner-decision, fault, and
VMD-op events).

Runnable::

    python -m repro.obs.check trace.json --require migration,planner
"""

from __future__ import annotations

import argparse
import json
import sys
from pathlib import Path

__all__ = ["KNOWN_CATEGORIES", "validate_chrome_trace",
           "missing_categories", "main"]

_PHASES = {"B", "E", "i", "b", "e", "M"}
_REQUIRED_KEYS = ("ph", "ts", "pid", "tid", "name")

#: the category registry: every span/instant category the instrumented
#: stack may emit. An event with a category outside this set fails
#: validation — new subsystems register here, keeping the schema tight
#: instead of loosening the check. ``-`` is the exporter's placeholder
#: for events without a category (span ends, metadata).
KNOWN_CATEGORIES = frozenset({
    "migration",  # engine lifecycle spans (outcome-carrying)
    "phase",      # per-phase migration spans (rounds, stop-and-copy...)
    "planner",    # planner decisions (request/plan/direct/replan/place)
    "trigger",    # watermark-alert instants
    "fault",      # fault injections and outage windows
    "vmd",        # namespace/server/repair events
    "net",        # per-channel transfer spans
    "umem",       # post-copy demand-fetch events
    "wss",        # working-set tracker events
    "fleet",      # fleet scheduler: demand, boots, drains, rebalances
    "clone",      # clone/fork provisioning: snapshots, forks, hydration
    "telemetry",  # live-metrics events (pressure-index samples)
    "slo",        # SLO monitor: violation open/close instants
    "-",          # no category (exporter placeholder)
})


def validate_chrome_trace(doc) -> list[str]:
    """Structural errors in a Chrome trace-event document ([] = valid)."""
    errors: list[str] = []
    if not isinstance(doc, dict):
        return [f"document is {type(doc).__name__}, expected object"]
    events = doc.get("traceEvents")
    if not isinstance(events, list):
        return ["missing traceEvents array"]
    stacks: dict[tuple, int] = {}
    open_async: dict[tuple, int] = {}
    for i, ev in enumerate(events):
        if not isinstance(ev, dict):
            errors.append(f"event[{i}] is not an object")
            continue
        for key in _REQUIRED_KEYS:
            if key not in ev:
                errors.append(f"event[{i}] missing key {key!r}")
        ph = ev.get("ph")
        if ph not in _PHASES:
            errors.append(f"event[{i}] unknown phase {ph!r}")
            continue
        if ph != "M" and "cat" in ev:
            for cat in str(ev["cat"]).split(","):
                if cat and cat not in KNOWN_CATEGORIES:
                    known = ", ".join(sorted(KNOWN_CATEGORIES))
                    errors.append(
                        f"event[{i}] unknown category {cat!r} "
                        f"(register it in repro.obs.check; "
                        f"known: {known})")
        if not isinstance(ev.get("ts"), (int, float)):
            errors.append(f"event[{i}] non-numeric ts")
        thread = (ev.get("pid"), ev.get("tid"))
        if ph == "B":
            stacks[thread] = stacks.get(thread, 0) + 1
        elif ph == "E":
            depth = stacks.get(thread, 0)
            if depth == 0:
                errors.append(f"event[{i}] E without matching B on "
                              f"thread {thread}")
            else:
                stacks[thread] = depth - 1
        elif ph in ("b", "e"):
            if "id" not in ev:
                errors.append(f"event[{i}] async event missing id")
                continue
            key = (ev["id"], ev.get("cat"), ev.get("name"))
            if ph == "b":
                open_async[key] = open_async.get(key, 0) + 1
            else:
                n = open_async.get(key, 0)
                if n == 0:
                    errors.append(f"event[{i}] async end without begin "
                                  f"(id={ev['id']})")
                else:
                    open_async[key] = n - 1
    for thread, depth in sorted(stacks.items()):
        if depth:
            errors.append(f"{depth} unclosed span(s) on thread {thread}")
    for key, n in sorted(open_async.items(), key=str):
        if n:
            errors.append(f"{n} unclosed async span(s) {key[2]!r}")
    return errors


def missing_categories(doc, required: list[str]) -> list[str]:
    """Required categories with no event in the trace."""
    seen = set()
    for ev in doc.get("traceEvents", []):
        if isinstance(ev, dict) and ev.get("cat"):
            seen.update(str(ev["cat"]).split(","))
    return [cat for cat in required if cat not in seen]


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(
        prog="python -m repro.obs.check",
        description="Validate a Chrome trace-event JSON file.")
    parser.add_argument("path", help="trace JSON file to validate")
    parser.add_argument("--require", default="",
                        help="comma-separated event categories that must "
                             "be present (e.g. migration,planner,fault)")
    args = parser.parse_args(argv)
    try:
        doc = json.loads(Path(args.path).read_text(encoding="utf-8"))
    except (OSError, json.JSONDecodeError) as exc:
        print(f"FAIL: cannot load {args.path}: {exc}")
        return 1
    errors = validate_chrome_trace(doc)
    required = [c for c in args.require.split(",") if c]
    if not errors:
        errors = [f"missing required category: {c}"
                  for c in missing_categories(doc, required)]
    if errors:
        for err in errors:
            print(f"FAIL: {err}")
        return 1
    n = len(doc["traceEvents"])
    print(f"ok: {args.path} ({n} events"
          + (f", categories: {','.join(required)}" if required else "")
          + ")")
    return 0


if __name__ == "__main__":
    sys.exit(main())
