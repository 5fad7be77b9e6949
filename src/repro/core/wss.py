"""Transparent working-set-size tracking (§IV-D).

The hypervisor estimates each VM's working set *without guest agents* by
watching swap activity on the VM's dedicated swap device (the paper reads
``iostat`` on the per-VM device; we read the same counters from the VM's
cgroup accounting):

* swap rate S above threshold τ  → the VM is missing pages it needs:
  grow the reservation by β (> 1);
* swap rate S at or below τ      → probe downward: shrink by α (< 1)
  until the threshold is breached, so the reservation hugs the true WSS.

Adjustments run every 2 s until the reservation stabilizes, then every
30 s; a burst of swap activity in the slow regime (a workload change)
switches back to fast convergence. Paper parameters: α = 0.95, β = 1.03,
τ = 4 KB/s.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Callable, Optional

from repro.mem.manager import HostMemoryManager
from repro.metrics.recorder import Recorder
from repro.obs.tracer import NULL_TRACER
from repro.sim.kernel import Simulator
from repro.sim.periodic import PeriodicTask

__all__ = ["WssTracker", "WssTrackerConfig"]


@dataclass(frozen=True)
class WssTrackerConfig:
    alpha: float = 0.95
    beta: float = 1.03
    #: swap-rate threshold in bytes/s (paper: 4 KB/s)
    tau_bps: float = 4096.0
    fast_interval_s: float = 2.0
    slow_interval_s: float = 30.0
    #: consecutive samples within tolerance to declare the WSS stable.
    #: The controller inherently oscillates within the α/β band (~±5 %),
    #: so the tolerance must exceed that envelope.
    stable_samples: int = 6
    stable_tolerance: float = 0.15
    #: swap rate (× τ) that re-triggers fast convergence
    reactivate_factor: float = 8.0
    #: never shrink below this floor (bytes)
    min_reservation_bytes: float = 64 * 2 ** 20

    def __post_init__(self):
        if not 0 < self.alpha < 1:
            raise ValueError("alpha must be in (0, 1)")
        if self.beta <= 1:
            raise ValueError("beta must be > 1")
        if self.tau_bps <= 0:
            raise ValueError("tau must be positive")


class WssTracker:
    """Periodic reservation controller for one VM."""

    def __init__(self, sim: Simulator, vm_name: str,
                 manager_of: Callable[[], HostMemoryManager],
                 recorder: Recorder,
                 config: Optional[WssTrackerConfig] = None,
                 max_reservation_bytes: float = float("inf"),
                 tracer=None):
        self.sim = sim
        self.vm_name = vm_name
        #: callable so the tracker follows the VM across migrations
        self.manager_of = manager_of
        self.recorder = recorder
        self.tracer = tracer if tracer is not None else NULL_TRACER
        self.config = config or WssTrackerConfig()
        self.max_reservation_bytes = max_reservation_bytes
        self._last_traffic: Optional[float] = None
        self._last_time: Optional[float] = None
        self._recent: list[float] = []
        self._fast = True
        self._task = PeriodicTask(sim, self.config.fast_interval_s,
                                  self._adjust)
        self.enabled = True

    # -- control ------------------------------------------------------------
    def stop(self) -> None:
        self.enabled = False
        self._task.cancel()

    @property
    def in_fast_mode(self) -> bool:
        return self._fast

    def estimated_wss_bytes(self) -> float:
        """The tracker's WSS estimate is the converged reservation."""
        return self._binding().cgroup.reservation_bytes

    # -- internals ---------------------------------------------------------------
    def _binding(self):
        return self.manager_of().binding(self.vm_name)

    def _swap_rate(self, now: float) -> Optional[float]:
        cg = self._binding().cgroup
        traffic = cg.swap_traffic_total()
        rate = None
        if self._last_traffic is not None and now > self._last_time:
            rate = (traffic - self._last_traffic) / (now - self._last_time)
        self._last_traffic = traffic
        self._last_time = now
        return rate

    def _adjust(self, now: float) -> None:
        if not self.enabled:
            return
        binding = self._binding()
        rate = self._swap_rate(now)
        if rate is None:
            return  # first sample only primes the counters
        cfg = self.config
        cg = binding.cgroup
        reservation = cg.reservation_bytes
        if rate > cfg.tau_bps:
            new = min(reservation * cfg.beta, self.max_reservation_bytes)
        else:
            new = max(reservation * cfg.alpha, cfg.min_reservation_bytes)
        cg.set_reservation(new)
        if new < reservation:
            self.manager_of().shrink_to_reservation(self.vm_name)
        self.recorder.record(f"{self.vm_name}.reservation", now, new)
        self.recorder.record(f"{self.vm_name}.swap_rate", now, rate)
        self._update_mode(now, new, rate)

    def _update_mode(self, now: float, reservation: float,
                     rate: float) -> None:
        cfg = self.config
        if self._fast:
            self._recent.append(reservation)
            if len(self._recent) > cfg.stable_samples:
                self._recent.pop(0)
            if len(self._recent) == cfg.stable_samples:
                lo, hi = min(self._recent), max(self._recent)
                if hi - lo <= cfg.stable_tolerance * hi:
                    self._fast = False
                    self._recent.clear()
                    self._task.set_interval(cfg.slow_interval_s)
                    if self.tracer.enabled:
                        self.tracer.instant(
                            f"vm:{self.vm_name}", "wss-converged",
                            cat="wss",
                            args={"reservation": float(reservation)})
        else:
            if rate > cfg.reactivate_factor * cfg.tau_bps:
                self._fast = True
                self._recent.clear()
                self._task.set_interval(cfg.fast_interval_s)
                if self.tracer.enabled:
                    self.tracer.instant(
                        f"vm:{self.vm_name}", "wss-reactivate", cat="wss",
                        args={"swap_rate": float(rate)})
