"""Fault tolerance for the miss path: breaker, negative cache, stale store.

The cache's miss path talks to a wide-area service that can throttle, error,
time out, or black out entirely (exercised by
:class:`~repro.network.faults.FaultInjector`). This module holds the policy
pieces every engine consults before and after a remote flight, composed into
one :class:`ResilienceManager`:

* :class:`CircuitBreaker` — classic closed → open → half-open state machine
  over a sliding window of flight outcomes. While open, miss fetches are
  refused up-front (no wasted round-trips hammering a dead backend); after
  ``open_seconds`` a limited number of probe flights decide between closing
  and re-opening.
* :class:`NegativeCache` — per-key memory of recent failures, so a hot key
  whose backend shard is broken does not burn a retry storm on every request
  while the rest of the keyspace stays healthy.
* :class:`StaleStore` — last-known-good results keyed by semantic identity,
  *outside* the cache's TTL machinery (the cache purges expired elements on
  lookup, so a TTL-expired answer survives only here). When the breaker is
  open or retries are exhausted, engines serve from this store as an explicit
  ``stale_hit`` and schedule a background refresh (stale-while-revalidate),
  mirroring the last-known-good fallback in ``mozilla/remote-settings``.
* Retry unification — transient faults are retried on the existing
  :class:`~repro.network.remote.RetryPolicy` shape (a short, bounded budget
  by default: degraded mode should fail over to stale data quickly, not
  inherit the throttling loop's effectively unbounded patience).

Everything here is deterministic given its seed and never touches the
hit/miss counters; degraded outcomes are accounted separately by the engines
(see :class:`~repro.core.metrics.EngineMetrics`).
"""

from __future__ import annotations

from collections import OrderedDict, deque
from dataclasses import dataclass

import numpy as np

from repro.core.types import FetchResult
from repro.network.remote import RemoteFetchError, RetryPolicy


class FetchFailed(RemoteFetchError):
    """A miss flight failed for good (retries exhausted or non-retryable).

    ``latency`` is the total simulated time the flight burned (failed
    attempts plus backoff waits); ``cause`` is the final underlying error.
    """

    def __init__(
        self, message: str, latency: float = 0.0, cause: Exception | None = None
    ) -> None:
        super().__init__(message, latency=latency)
        self.cause = cause


class CircuitBreaker:
    """Closed → open → half-open breaker over a sliding outcome window.

    * **closed** — flights flow; outcomes land in a ``window``-sized deque.
      When at least ``min_samples`` outcomes are present and the failure
      fraction reaches ``failure_threshold``, the breaker opens.
    * **open** — every :meth:`allow` is refused until ``open_seconds`` have
      passed since the trip.
    * **half-open** — up to ``half_open_probes`` flights are granted. Any
      failure re-opens immediately; ``half_open_probes`` successes close the
      breaker and clear the window.

    Every state change is appended to :attr:`transitions` as
    ``(timestamp, from_state, to_state)`` (bounded, oldest dropped) and
    forwarded to the optional :attr:`on_transition` listener — the hook the
    observability bridge uses to mirror breaker state into a gauge and a
    transition-event counter.

    Not thread-safe on its own — :class:`ResilienceManager` serialises access.
    """

    #: Breaker states in gauge-encoding order (closed=0, open=1, half_open=2).
    STATES = ("closed", "open", "half_open")

    def __init__(
        self,
        failure_threshold: float = 0.5,
        window: int = 20,
        min_samples: int = 8,
        open_seconds: float = 30.0,
        half_open_probes: int = 2,
        max_transitions: int = 1024,
    ) -> None:
        if not 0.0 < failure_threshold <= 1.0:
            raise ValueError(
                f"failure_threshold must be in (0, 1], got {failure_threshold}"
            )
        if window < 1 or min_samples < 1 or min_samples > window:
            raise ValueError(
                f"need 1 <= min_samples <= window, got {min_samples}/{window}"
            )
        if open_seconds <= 0 or half_open_probes < 1:
            raise ValueError("open_seconds must be > 0 and half_open_probes >= 1")
        self.failure_threshold = failure_threshold
        self.window = window
        self.min_samples = min_samples
        self.open_seconds = open_seconds
        self.half_open_probes = half_open_probes
        if max_transitions < 1:
            raise ValueError("max_transitions must be >= 1")
        self.state = "closed"
        self._outcomes: deque[bool] = deque(maxlen=window)
        self._opened_at = 0.0
        self._probes_granted = 0
        self._probe_successes = 0
        # -- statistics --
        self.opens = 0
        self.closes = 0
        self.probes = 0
        #: ``(now, from_state, to_state)`` history, oldest dropped.
        self.transitions: deque[tuple[float, str, str]] = deque(
            maxlen=max_transitions
        )
        #: Optional ``fn(now, from_state, to_state)`` called on every change
        #: (under the owning manager's lock — keep it cheap and reentrant-free).
        self.on_transition = None

    def _set_state(self, now: float, new_state: str) -> None:
        old_state = self.state
        self.state = new_state
        self.transitions.append((now, old_state, new_state))
        if self.on_transition is not None:
            self.on_transition(now, old_state, new_state)

    @property
    def failure_rate(self) -> float:
        if not self._outcomes:
            return 0.0
        return sum(1 for ok in self._outcomes if not ok) / len(self._outcomes)

    def allow(self, now: float) -> bool:
        """May a miss flight start at ``now``? Half-open grants count probes."""
        if self.state == "open":
            if now - self._opened_at < self.open_seconds:
                return False
            self._set_state(now, "half_open")
            self._probes_granted = 0
            self._probe_successes = 0
        if self.state == "half_open":
            if self._probes_granted >= self.half_open_probes:
                return False
            self._probes_granted += 1
            self.probes += 1
        return True

    def record_success(self, now: float) -> None:
        """Note one successful flight (half-open successes close the breaker)."""
        if self.state == "half_open":
            self._probe_successes += 1
            if self._probe_successes >= self.half_open_probes:
                self._set_state(now, "closed")
                self._outcomes.clear()
                self.closes += 1
        elif self.state == "closed":
            self._outcomes.append(True)

    def record_failure(self, now: float) -> None:
        """Note one failed flight (may trip the breaker open)."""
        if self.state == "half_open":
            self._trip(now)
        elif self.state == "closed":
            self._outcomes.append(False)
            if (
                len(self._outcomes) >= self.min_samples
                and self.failure_rate >= self.failure_threshold
            ):
                self._trip(now)
        # Stragglers finishing after a trip are ignored while open.

    def _trip(self, now: float) -> None:
        self._set_state(now, "open")
        self._opened_at = now
        self._outcomes.clear()
        self.opens += 1

    def reset(self, now: float) -> None:
        """Force-close with a clean window, skipping half-open probing.

        For out-of-band recovery confirmation: the proc-tier supervisor
        calls this after a shard worker has respawned and completed its
        hello handshake — the probe protocol exists to *discover* recovery,
        and here recovery is already a fact.
        """
        if self.state != "closed":
            self._set_state(now, "closed")
            self.closes += 1
        self._outcomes.clear()
        self._probes_granted = 0
        self._probe_successes = 0

    def __repr__(self) -> str:
        return (
            f"CircuitBreaker(state={self.state!r}, "
            f"failure_rate={self.failure_rate:.2f}, opens={self.opens})"
        )


class NegativeCache:
    """Remembers keys whose fetches recently failed, for ``ttl`` seconds."""

    def __init__(self, ttl: float = 5.0, capacity: int = 1024) -> None:
        if ttl <= 0 or capacity < 1:
            raise ValueError("ttl must be > 0 and capacity >= 1")
        self.ttl = ttl
        self.capacity = capacity
        self._entries: OrderedDict[object, float] = OrderedDict()

    def put(self, key: object, now: float) -> None:
        """Mark ``key`` failed as of ``now`` (evicting oldest past capacity)."""
        self._entries[key] = now + self.ttl
        self._entries.move_to_end(key)
        while len(self._entries) > self.capacity:
            self._entries.popitem(last=False)

    def check(self, key: object, now: float) -> bool:
        """True when ``key`` failed recently (entry present and unexpired)."""
        expiry = self._entries.get(key)
        if expiry is None:
            return False
        if now >= expiry:
            del self._entries[key]
            return False
        return True

    def discard(self, key: object) -> None:
        """Forget ``key`` (a fetch for it just succeeded)."""
        self._entries.pop(key, None)

    def __len__(self) -> int:
        return len(self._entries)


@dataclass(frozen=True, slots=True)
class StaleEntry:
    """A last-known-good result and when it was stored."""

    fetch: FetchResult
    stored_at: float


class StaleStore:
    """LRU store of last-known-good fetch results, immune to cache TTLs.

    ``max_age=None`` means any previously seen answer is servable under
    degradation (availability over freshness — the caller marks it
    ``stale_hit`` so downstream consumers can tell).
    """

    def __init__(self, capacity: int = 4096, max_age: float | None = None) -> None:
        if capacity < 1:
            raise ValueError(f"capacity must be >= 1, got {capacity}")
        if max_age is not None and max_age <= 0:
            raise ValueError(f"max_age must be > 0, got {max_age}")
        self.capacity = capacity
        self.max_age = max_age
        self._entries: OrderedDict[object, StaleEntry] = OrderedDict()

    def put(self, key: object, fetch: FetchResult, now: float) -> None:
        """Store ``fetch`` as the last-known-good result for ``key``."""
        self._entries[key] = StaleEntry(fetch=fetch, stored_at=now)
        self._entries.move_to_end(key)
        while len(self._entries) > self.capacity:
            self._entries.popitem(last=False)

    def get(self, key: object, now: float) -> StaleEntry | None:
        """The last-known-good entry for ``key``, or None (absent/too old)."""
        entry = self._entries.get(key)
        if entry is None:
            return None
        if self.max_age is not None and now - entry.stored_at > self.max_age:
            del self._entries[key]
            return None
        self._entries.move_to_end(key)
        return entry

    def __len__(self) -> int:
        return len(self._entries)


class ResilienceManager:
    """One backend's fault-tolerance state, shared by every serving stack.

    Called only from the serving thread, so it holds no lock. The success
    path (breaker window append, stale store write) draws no randomness and
    bumps no engine metrics, so a manager attached to a fault-free run leaves
    its stats byte-identical.

    Parameters
    ----------
    retry_policy:
        Backoff shape for transient-fault retries. Defaults to a short
        bounded budget (two retries, 50 ms base) — degraded mode should fail
        over to stale data quickly rather than inherit the throttling loop's
        patience.
    breaker:
        The circuit breaker; a default one is built when omitted.
    negative_ttl:
        Seconds a failed key stays negative-cached.
    stale_capacity / stale_max_age:
        Sizing/freshness bound of the stale store.
    seed:
        Seed for backoff jitter draws (unused with the default zero jitter).
    """

    def __init__(
        self,
        retry_policy: RetryPolicy | None = None,
        breaker: CircuitBreaker | None = None,
        negative_ttl: float = 5.0,
        stale_capacity: int = 4096,
        stale_max_age: float | None = None,
        seed: int = 0,
    ) -> None:
        self.retry_policy = retry_policy or RetryPolicy(
            base=0.05, multiplier=2.0, max_delay=1.0, max_retries=2, jitter=0.0
        )
        self.breaker = breaker or CircuitBreaker()
        self.negative = NegativeCache(ttl=negative_ttl)
        self.stale = StaleStore(capacity=stale_capacity, max_age=stale_max_age)
        self.rng = np.random.default_rng(seed)

    # -- admission ----------------------------------------------------------
    def admit(self, key: object, now: float) -> str:
        """Gate one miss flight: ``"allow"``, ``"negative"``, or ``"open"``."""
        if self.negative.check(key, now):
            return "negative"
        if not self.breaker.allow(now):
            return "open"
        return "allow"

    def allow_probe(self, now: float) -> bool:
        """May a background refresh flight start at ``now``?

        Refreshes ride the same breaker budget as foreground probes, so an
        open breaker also silences revalidation traffic.
        """
        return self.breaker.allow(now)

    # -- outcome accounting -------------------------------------------------
    def on_success(self, key: object, fetch: FetchResult, now: float) -> None:
        """Account a successful flight: breaker success, un-negative the key,
        and bank the result as last-known-good."""
        self.breaker.record_success(now)
        self.negative.discard(key)
        self.stale.put(key, fetch, now)

    def on_failure(self, key: object, now: float) -> None:
        """Account a failed flight: breaker failure + negative-cache the key."""
        self.breaker.record_failure(now)
        self.negative.put(key, now)

    def stale_for(self, key: object, now: float) -> StaleEntry | None:
        """The servable last-known-good entry for ``key`` (None when
        nothing fresh enough is banked)."""
        return self.stale.get(key, now)

    def next_delay(self, attempt: int) -> float:
        """Backoff before retry ``attempt`` (0-based); deterministic when
        the policy's jitter is zero."""
        return self.retry_policy.delay(attempt, self.rng)

    def __repr__(self) -> str:
        return (
            f"ResilienceManager(breaker={self.breaker!r}, "
            f"negative={len(self.negative)}, stale={len(self.stale)})"
        )
