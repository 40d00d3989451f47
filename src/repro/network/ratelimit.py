"""Client-visible API rate limiting.

``TokenBucket`` refills continuously at ``rate`` tokens/second up to
``burst``: the model used for the paper's "100 queries per minute" Google
Search limit, behind the one-method-pair ``RateLimiter`` interface.

It works in simulated time: callers pass ``now`` explicitly, and
``next_available`` lets a simulated client compute how long to back off
without busy-waiting.
"""

from __future__ import annotations

from typing import Protocol, runtime_checkable


@runtime_checkable
class RateLimiter(Protocol):
    """What a throttled client needs from a limiter."""

    def try_acquire(self, now: float) -> bool:
        """Consume one permit if available at time ``now``."""
        ...

    def next_available(self, now: float) -> float:
        """Earliest time ≥ ``now`` at which a permit could be granted."""
        ...


class TokenBucket:
    """Token bucket: ``rate`` permits/second, capacity ``burst``.

    >>> bucket = TokenBucket(rate=2.0, burst=1)
    >>> bucket.try_acquire(0.0)
    True
    >>> bucket.try_acquire(0.0)
    False
    >>> bucket.next_available(0.0)
    0.5
    """

    def __init__(self, rate: float, burst: int = 1) -> None:
        if rate <= 0:
            raise ValueError(f"rate must be > 0, got {rate}")
        if burst < 1:
            raise ValueError(f"burst must be >= 1, got {burst}")
        self.rate = float(rate)
        self.burst = int(burst)
        self._tokens = float(burst)
        self._updated_at = 0.0
        self.granted = 0
        self.rejected = 0

    @classmethod
    def per_minute(cls, limit: int, burst: int | None = None) -> "TokenBucket":
        """A bucket expressed as requests/minute (e.g. ``per_minute(100)``)."""
        if limit < 1:
            raise ValueError(f"limit must be >= 1, got {limit}")
        return cls(rate=limit / 60.0, burst=burst if burst is not None else limit)

    def _refill(self, now: float) -> None:
        if now < self._updated_at:
            raise ValueError(
                f"time went backwards: {now} < {self._updated_at}"
            )
        self._tokens = min(
            self.burst, self._tokens + (now - self._updated_at) * self.rate
        )
        self._updated_at = now

    def try_acquire(self, now: float) -> bool:
        """Consume one token if available at ``now``."""
        self._refill(now)
        if self._tokens >= 1.0:
            self._tokens -= 1.0
            self.granted += 1
            return True
        self.rejected += 1
        return False

    def next_available(self, now: float) -> float:
        """Earliest time a token will exist (now if one does)."""
        self._refill(now)
        if self._tokens >= 1.0:
            return now
        deficit = 1.0 - self._tokens
        return now + deficit / self.rate

    def __repr__(self) -> str:
        return (
            f"TokenBucket(rate={self.rate:.4f}/s, burst={self.burst}, "
            f"granted={self.granted}, rejected={self.rejected})"
        )
