"""Zipfian rank sampling (§2.3, Figure 2).

Search interest follows a Zipf law: the paper's skewed workloads use
exponent 0.99. :class:`ZipfSampler` draws 0-based popularity ranks with
P(rank=k) ∝ 1/(k+1)^s via an exact inverse-CDF over the finite support.
"""

from __future__ import annotations

import numpy as np


class ZipfSampler:
    """Draws ranks in ``[0, n)`` with probability ∝ ``1/(rank+1)**s``.

    >>> sampler = ZipfSampler(n=100, s=0.99)
    >>> rng = np.random.default_rng(0)
    >>> 0 <= sampler.sample(rng) < 100
    True
    """

    def __init__(self, n: int, s: float = 0.99) -> None:
        if n < 1:
            raise ValueError(f"n must be >= 1, got {n}")
        if s < 0:
            raise ValueError(f"s must be >= 0, got {s}")
        self.n = n
        self.s = s
        weights = 1.0 / np.power(np.arange(1, n + 1, dtype=float), s)
        self._probabilities = weights / weights.sum()
        self._cdf = np.cumsum(self._probabilities)

    def probability(self, rank: int) -> float:
        """P(rank); rank is 0-based."""
        if not 0 <= rank < self.n:
            raise IndexError(f"rank {rank} out of [0, {self.n})")
        return float(self._probabilities[rank])

    def sample(self, rng: np.random.Generator) -> int:
        """One rank draw."""
        return int(np.searchsorted(self._cdf, rng.random(), side="right"))

    def sample_many(self, rng: np.random.Generator, count: int) -> np.ndarray:
        """``count`` i.i.d. rank draws."""
        if count < 0:
            raise ValueError("count must be >= 0")
        return np.searchsorted(
            self._cdf, rng.random(count), side="right"
        ).astype(np.int64)

    def __repr__(self) -> str:
        return f"ZipfSampler(n={self.n}, s={self.s})"
