"""Fault/recovery event log with downtime attribution.

Every injection, reversion, and VM loss is appended to one time-ordered
list, which the metrics layer exports alongside the
usual series (CSV/JSON). Two summary statistics answer the questions the
survivability matrix asks:

* :meth:`FaultLog.mttr` — mean time to repair over the faults that were
  actually reverted;
* :meth:`FaultLog.vm_unavailable_seconds` — total VM-seconds of
  unavailability attributed to faults (a VM killed by a fault and never
  restored accrues until the observation horizon).
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Optional

__all__ = ["FaultEvent", "FaultLog"]


@dataclass(frozen=True)
class FaultEvent:
    """One entry in the fault/recovery timeline."""

    t: float
    #: ``inject`` / ``revert`` for faults; ``vm-lost`` when a fault
    #: kills a VM
    action: str
    kind: str
    target: str
    detail: str = ""

    def describe(self) -> str:
        s = f"t={self.t:g} {self.action} {self.kind} {self.target}"
        return f"{s} [{self.detail}]" if self.detail else s


class FaultLog:
    """Append-only fault timeline plus open/closed interval tracking."""

    def __init__(self):
        self.events: list[FaultEvent] = []
        #: (kind, target) → injection time of the currently open fault
        self._open_faults: dict[tuple[str, str], float] = {}
        #: closed repair intervals: (kind, target, start, end)
        self.repairs: list[tuple[str, str, float, float]] = []
        #: vm name → time it became unavailable (a lost VM stays lost)
        self._open_outages: dict[str, float] = {}

    # -- fault intervals -----------------------------------------------------
    def record(self, t: float, action: str, kind: str, target: str,
               detail: str = "") -> None:
        self.events.append(FaultEvent(t, action, kind, target, detail))
        key = (kind, target)
        if action == "inject":
            self._open_faults.setdefault(key, t)
        elif action == "revert":
            start = self._open_faults.pop(key, None)
            if start is not None:
                self.repairs.append((kind, target, start, t))

    # -- VM availability -----------------------------------------------------
    def mark_vm_unavailable(self, vm: str, t: float,
                            detail: str = "") -> None:
        """Open an outage interval for ``vm`` (idempotent while open)."""
        if vm in self._open_outages:
            return
        self._open_outages[vm] = t
        self.events.append(FaultEvent(t, "vm-lost", "vm", vm, detail))

    # -- summary statistics --------------------------------------------------
    def mttr(self) -> Optional[float]:
        """Mean time-to-repair over reverted faults (None if none)."""
        if not self.repairs:
            return None
        return sum(end - start
                   for _, _, start, end in self.repairs) / len(self.repairs)

    def vm_unavailable_seconds(self, until: float) -> float:
        """Total VM-seconds unavailable, outages truncated at ``until``."""
        return sum(max(0.0, until - start)
                   for start in self._open_outages.values())

    def unavailable_vms(self) -> list[str]:
        """VMs currently down, sorted for determinism."""
        return sorted(self._open_outages)

    # -- export --------------------------------------------------------------
    def to_rows(self) -> list[tuple]:
        """``(t, action, kind, target, detail)`` rows, header excluded."""
        return [(e.t, e.action, e.kind, e.target, e.detail)
                for e in self.events]

    def describe(self) -> list[str]:
        """Stable one-line-per-event rendering (determinism checks
        compare two runs' lists for equality)."""
        return [e.describe() for e in self.events]
