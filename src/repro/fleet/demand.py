"""Tenant demand: deterministic, seeded VM arrival/departure streams.

The fleet scheduler is exercised by *churn* — tenants boot VMs, run
them for a while, and tear them down. :class:`DemandGenerator` turns a
seed plus a :class:`DemandConfig` into a fully materialized, sorted
list of :class:`VmSpec` arrivals; everything downstream (placement,
rebalancing, traces) is then a pure function of that list, so two
same-seed runs are byte-identical end to end.

Arrival intensity follows one of three shapes the datacenter literature
cares about:

* ``bursty`` — a square wave: quiet baseline traffic punctuated by
  periodic bursts of ``BURST_FACTOR``× the base rate (batch jobs,
  deploy waves);
* ``diurnal`` — a sinusoidal day/night cycle around the base rate
  (interactive tenants following the sun);
* ``flash-crowd`` — baseline traffic until ``flash_at``, then a single
  ``flash_factor``× spike for ``flash_duration_s`` (a viral event the
  scheduler must absorb, Moniruzzaman et al.'s scale-out trigger).

Within an interval, arrivals are Poisson draws; each arrival's tenant
is drawn from a truncated-Zipf popularity law (a few big tenants, a
long tail), its workload type picks the memory-size palette (``kv``
caches are smaller than ``oltp`` databases), and its lifetime is
exponential with a floor — sustained churn rather than one-shot load.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Optional

import numpy as np

__all__ = ["DemandConfig", "DemandGenerator", "VmSpec"]

PATTERNS = ("bursty", "diurnal", "flash-crowd")
MiB = float(2 ** 20)

#: Zipf skew of tenant popularity (1.0 = classic; higher = heavier head)
TENANT_SKEW = 1.1
#: probability an arrival is a kv-cache VM (else oltp)
KV_FRACTION = 0.6
#: memory-size palettes per workload family (bytes)
KV_SIZES = (8 * MiB, 12 * MiB, 16 * MiB)
OLTP_SIZES = (16 * MiB, 24 * MiB, 32 * MiB)
#: bursty shape: period, fraction of it spent bursting, burst multiplier
BURST_PERIOD_S = 20.0
BURST_DUTY = 0.25
BURST_FACTOR = 4.0
#: diurnal shape: cycle length and relative swing around the base rate
DIURNAL_PERIOD_S = 40.0
DIURNAL_AMPLITUDE = 0.8


@dataclass(frozen=True)
class VmSpec:
    """One requested VM: what a tenant asked the fleet to boot."""

    name: str
    tenant: str
    #: guest memory demand (also the cgroup reservation at boot)
    memory_bytes: float
    #: workload family, ``kv`` or ``oltp`` (size palette + dirty profile)
    workload: str
    #: simulation time the boot request arrives
    arrival_s: float
    #: how long the VM runs after booting; None = until the end
    lifetime_s: Optional[float] = None

    def describe(self) -> str:
        life = f"{self.lifetime_s:g}s" if self.lifetime_s else "forever"
        return (f"{self.name} tenant={self.tenant} {self.workload} "
                f"{self.memory_bytes / MiB:g}MiB life={life}")


@dataclass(frozen=True)
class DemandConfig:
    """Shape and intensity of the arrival/departure stream."""

    pattern: str = "bursty"
    #: stream horizon — no arrivals after this time
    horizon_s: float = 60.0
    #: baseline arrival intensity (VMs per second)
    base_rate_per_s: float = 0.5
    #: arrival-draw interval (rate is integrated per interval)
    interval_s: float = 1.0
    #: number of tenants in the Zipf popularity law
    n_tenants: int = 8
    #: mean exponential VM lifetime
    mean_lifetime_s: float = 25.0
    #: lifetime floor — nothing departs faster than this
    min_lifetime_s: float = 5.0
    # flash-crowd shape
    flash_at: float = 20.0
    flash_duration_s: float = 6.0
    flash_factor: float = 6.0
    seed: int = 0

    def __post_init__(self):
        if self.pattern not in PATTERNS:
            raise ValueError(f"unknown pattern: {self.pattern!r} "
                             f"(one of {PATTERNS})")
        if self.horizon_s <= 0 or self.interval_s <= 0:
            raise ValueError("horizon and interval must be positive")
        if self.base_rate_per_s < 0:
            raise ValueError("base_rate_per_s must be non-negative")
        if self.n_tenants < 1:
            raise ValueError("need at least one tenant")
        if self.min_lifetime_s < 0 or self.mean_lifetime_s <= 0:
            raise ValueError("lifetimes must be positive")


@dataclass
class DemandGenerator:
    """Materializes the arrival stream for one scenario run."""

    config: DemandConfig = field(default_factory=DemandConfig)
    #: VM name prefix (specs are named ``<prefix><n>`` in arrival order)
    prefix: str = "vm"

    def rate_factor(self, t: float) -> float:
        """The pattern's intensity multiplier at time ``t`` (>= 0)."""
        cfg = self.config
        if cfg.pattern == "bursty":
            phase = (t % BURST_PERIOD_S) / BURST_PERIOD_S
            return BURST_FACTOR if phase < BURST_DUTY else 1.0
        if cfg.pattern == "diurnal":
            return 1.0 + DIURNAL_AMPLITUDE * float(
                np.sin(2.0 * np.pi * t / DIURNAL_PERIOD_S))
        # flash-crowd
        if cfg.flash_at <= t < cfg.flash_at + cfg.flash_duration_s:
            return cfg.flash_factor
        return 1.0

    def generate(self) -> list[VmSpec]:
        """The full arrival stream, sorted by arrival time.

        Pure function of the config (including its seed): every random
        draw happens here, in a fixed order, so the stream — and any
        simulation driven by it — is deterministic.
        """
        cfg = self.config
        rng = np.random.default_rng(cfg.seed)
        # tenant popularity: truncated Zipf over n_tenants
        ranks = np.arange(1, cfg.n_tenants + 1, dtype=float)
        tenant_p = ranks ** -TENANT_SKEW
        tenant_p /= tenant_p.sum()
        specs: list[VmSpec] = []
        seq = 0
        t = 0.0
        while t < cfg.horizon_s:
            dt = min(cfg.interval_s, cfg.horizon_s - t)
            lam = cfg.base_rate_per_s * self.rate_factor(t) * dt
            for _ in range(int(rng.poisson(lam))):
                offset = float(rng.uniform(0.0, dt))
                tenant = f"t{int(rng.choice(cfg.n_tenants, p=tenant_p))}"
                if rng.uniform() < KV_FRACTION:
                    workload, sizes = "kv", KV_SIZES
                else:
                    workload, sizes = "oltp", OLTP_SIZES
                memory = float(sizes[int(rng.integers(len(sizes)))])
                lifetime = max(cfg.min_lifetime_s,
                               float(rng.exponential(cfg.mean_lifetime_s)))
                specs.append(VmSpec(
                    name=f"{self.prefix}{seq}", tenant=tenant,
                    memory_bytes=memory, workload=workload,
                    arrival_s=round(t + offset, 6),
                    lifetime_s=round(lifetime, 6)))
                seq += 1
            t += dt
        # names were assigned in draw order; sort by (arrival, name) so
        # simultaneous arrivals keep a deterministic service order
        specs.sort(key=lambda s: (s.arrival_s, s.name))
        return specs
