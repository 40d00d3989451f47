"""Seedable random variates for service times and network latencies.

Each distribution is a small immutable object with a ``sample(rng)`` method
taking a ``numpy.random.Generator``. Keeping the generator external lets the
same distribution be sampled from different named streams (see
:func:`repro.sim.random.derive_seed`) without hidden state.

``distribution_from_spec`` builds a distribution from a plain dict, which is
how experiment configs describe latency models.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Sequence

import numpy as np


class Distribution:
    """Base class for random variates; subclasses implement :meth:`sample`."""

    def sample(self, rng: np.random.Generator) -> float:
        """Draw one value."""
        raise NotImplementedError

    def mean(self) -> float:
        """Analytic mean of the distribution."""
        raise NotImplementedError


@dataclass(frozen=True)
class Constant(Distribution):
    """A degenerate distribution: always ``value``."""

    value: float

    def __post_init__(self) -> None:
        if self.value < 0:
            raise ValueError(f"latency cannot be negative: {self.value}")

    def sample(self, rng: np.random.Generator) -> float:
        """Always ``value``."""
        return self.value

    def mean(self) -> float:
        """``value`` itself."""
        return self.value


@dataclass(frozen=True)
class Uniform(Distribution):
    """Uniform on ``[low, high]``."""

    low: float
    high: float

    def __post_init__(self) -> None:
        if not 0 <= self.low <= self.high:
            raise ValueError(f"invalid uniform bounds [{self.low}, {self.high}]")

    def sample(self, rng: np.random.Generator) -> float:
        """One uniform draw."""
        return float(rng.uniform(self.low, self.high))

    def mean(self) -> float:
        """Midpoint of the interval."""
        return (self.low + self.high) / 2.0


@dataclass(frozen=True)
class Exponential(Distribution):
    """Exponential with the given ``mean_value`` (scale)."""

    mean_value: float

    def __post_init__(self) -> None:
        if self.mean_value <= 0:
            raise ValueError(f"exponential mean must be > 0: {self.mean_value}")

    def sample(self, rng: np.random.Generator) -> float:
        """One exponential draw."""
        return float(rng.exponential(self.mean_value))

    def mean(self) -> float:
        """The configured mean."""
        return self.mean_value


@dataclass(frozen=True)
class TruncatedNormal(Distribution):
    """Normal(mu, sigma) clipped below at ``floor`` (default 0).

    The mean reported is the untruncated mu, which is accurate enough for the
    small relative sigmas used in latency models.
    """

    mu: float
    sigma: float
    floor: float = 0.0

    def __post_init__(self) -> None:
        if self.sigma < 0:
            raise ValueError(f"sigma must be >= 0: {self.sigma}")

    def sample(self, rng: np.random.Generator) -> float:
        """One clipped normal draw."""
        return max(self.floor, float(rng.normal(self.mu, self.sigma)))

    def mean(self) -> float:
        """The (untruncated) mu, floored."""
        return max(self.floor, self.mu)


@dataclass(frozen=True)
class LogNormal(Distribution):
    """Log-normal parameterised by the mean and sigma of the *underlying* normal."""

    mu: float
    sigma: float

    def __post_init__(self) -> None:
        if self.sigma < 0:
            raise ValueError(f"sigma must be >= 0: {self.sigma}")

    def sample(self, rng: np.random.Generator) -> float:
        """One log-normal draw."""
        return float(rng.lognormal(self.mu, self.sigma))

    def mean(self) -> float:
        """Analytic mean exp(mu + sigma^2 / 2)."""
        return float(np.exp(self.mu + self.sigma**2 / 2.0))

    @classmethod
    def from_mean_cv(cls, mean: float, cv: float) -> "LogNormal":
        """Construct from a target mean and coefficient of variation."""
        if mean <= 0:
            raise ValueError(f"mean must be > 0: {mean}")
        if cv < 0:
            raise ValueError(f"cv must be >= 0: {cv}")
        sigma2 = np.log(1.0 + cv**2)
        mu = np.log(mean) - sigma2 / 2.0
        return cls(mu=float(mu), sigma=float(np.sqrt(sigma2)))


class Empirical(Distribution):
    """Resamples uniformly from observed ``values``."""

    def __init__(self, values: Sequence[float]) -> None:
        if len(values) == 0:
            raise ValueError("empirical distribution needs at least one value")
        self._values = np.asarray(values, dtype=float)
        if np.any(self._values < 0):
            raise ValueError("empirical latency values must be non-negative")

    def sample(self, rng: np.random.Generator) -> float:
        """One uniform resample of the observed values."""
        return float(rng.choice(self._values))

    def mean(self) -> float:
        """Mean of the observed values."""
        return float(self._values.mean())

    def __repr__(self) -> str:
        return f"Empirical(n={len(self._values)}, mean={self.mean():.4f})"


_SPEC_BUILDERS = {
    "constant": lambda spec: Constant(spec["value"]),
    "uniform": lambda spec: Uniform(spec["low"], spec["high"]),
    "exponential": lambda spec: Exponential(spec["mean"]),
    "normal": lambda spec: TruncatedNormal(
        spec["mu"], spec["sigma"], spec.get("floor", 0.0)
    ),
    "lognormal": lambda spec: (
        LogNormal.from_mean_cv(spec["mean"], spec["cv"])
        if "mean" in spec
        else LogNormal(spec["mu"], spec["sigma"])
    ),
    "empirical": lambda spec: Empirical(spec["values"]),
}


def distribution_from_spec(spec: "dict | Distribution | float") -> Distribution:
    """Build a :class:`Distribution` from a config value.

    Accepts an existing distribution (returned as-is), a bare number
    (treated as :class:`Constant`), or a dict with a ``kind`` key, e.g.
    ``{"kind": "uniform", "low": 0.3, "high": 0.5}``.
    """
    if isinstance(spec, Distribution):
        return spec
    if isinstance(spec, (int, float)):
        return Constant(float(spec))
    if not isinstance(spec, dict):
        raise TypeError(f"cannot build a distribution from {spec!r}")
    kind = spec.get("kind")
    if kind not in _SPEC_BUILDERS:
        raise ValueError(
            f"unknown distribution kind {kind!r}; expected one of "
            f"{sorted(_SPEC_BUILDERS)}"
        )
    return _SPEC_BUILDERS[kind](spec)
