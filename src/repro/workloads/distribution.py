"""Access distributions over a workload's query region.

The paper's YCSB runs use a uniform key distribution (§V-A), which
:class:`UniformAccess` models exactly. YCSB's default *zipfian*
distribution is provided as :class:`ZipfAccess` — an extension that
matters for migration studies because a skewed working set makes the
"hot pages in memory, cold pages on the per-VM swap" split far sharper,
which is precisely the regime Agile migration exploits.

A distribution answers two questions about the region ``[lo, hi)``:

* ``class_probability(mask)`` — the probability that one page access
  lands in the page class described by a region-relative boolean mask
  (e.g. "missing and swapped");
* ``sample(mask, k, rng)`` — which ``k`` distinct pages of that class
  the tick's accesses actually touched. ``mask`` may cover just a
  prefix of the region (the hot write set); ``region`` then gives the
  region's full size, so the weights are those of the whole region.

Both are exact under the per-page weight model (no bucketing).
"""

from __future__ import annotations

from typing import Optional

import numpy as np

__all__ = ["AccessDistribution", "UniformAccess", "ZipfAccess"]


class AccessDistribution:
    """Base class; implementations may cache per-region-size state."""

    def class_probability(self, mask: np.ndarray) -> float:
        raise NotImplementedError

    def sample(self, mask: np.ndarray, k: int, rng: np.random.Generator,
               region: Optional[int] = None) -> np.ndarray:
        """Region-relative indices of up to ``k`` distinct pages in
        ``mask``, drawn by access probability. ``mask`` may be a prefix
        of a ``region``-page region (default: ``mask`` is the region)."""
        raise NotImplementedError


class UniformAccess(AccessDistribution):
    """Every page of the region is equally likely (the paper's setup)."""

    def class_probability(self, mask: np.ndarray) -> float:
        if mask.size == 0:
            return 0.0
        return float(np.count_nonzero(mask)) / mask.size

    def sample(self, mask: np.ndarray, k: int, rng: np.random.Generator,
               region: Optional[int] = None) -> np.ndarray:
        cand = np.flatnonzero(mask)
        if cand.size <= k:
            return cand
        return rng.choice(cand, size=k, replace=False)


class ZipfAccess(AccessDistribution):
    """Zipf-distributed page popularity: page 0 is the hottest.

    ``theta`` is the YCSB/Zipf skew parameter (YCSB default 0.99).
    Weights are ``rank^-theta``, normalized over the current region
    size; they are recomputed lazily when the region size changes (the
    paper's load ramp grows the queried range).
    """

    def __init__(self, theta: float = 0.99):
        if theta <= 0:
            raise ValueError("theta must be positive")
        self.theta = float(theta)
        self._weights = np.empty(0)

    def _weights_for(self, n: int) -> np.ndarray:
        if self._weights.size != n:
            ranks = np.arange(1, n + 1, dtype=np.float64)
            w = ranks ** (-self.theta)
            self._weights = w / w.sum()
        return self._weights

    def class_probability(self, mask: np.ndarray) -> float:
        if mask.size == 0:
            return 0.0
        w = self._weights_for(mask.size)
        return float(w[mask].sum())

    def sample(self, mask: np.ndarray, k: int, rng: np.random.Generator,
               region: Optional[int] = None) -> np.ndarray:
        cand = np.flatnonzero(mask)
        if cand.size <= k:
            return cand
        w = self._weights_for(mask.size if region is None else region)[cand]
        total = w.sum()
        if total <= 0:
            return rng.choice(cand, size=k, replace=False)
        return rng.choice(cand, size=k, replace=False, p=w / total)
