"""Measurement: latency reservoirs and engine-level counters.

Every engine owns an :class:`EngineMetrics`; experiments read it to print the
paper's metrics — throughput (req/s), latency percentiles, cache hit rate,
API calls/retries, and operational cost.

:class:`LatencyStats` is bounded-memory: it keeps ``count``/``total``/``max``
exact for any number of samples but retains at most ``max_samples`` values
(reservoir sampling, Algorithm R with a seeded RNG). Percentiles are exact
until the cap is reached and an unbiased estimate beyond it, so a soak run of
10^8 requests holds the same memory as one of 10^4.
"""

from __future__ import annotations

import random
from dataclasses import dataclass, field

import numpy as np

#: Default reservoir capacity. Large enough that every existing experiment
#: and test (well under 16k samples per reservoir) sees exact percentiles;
#: small enough that six reservoirs per engine stay ~100 KB in a soak run.
DEFAULT_RESERVOIR = 16_384


class LatencyStats:
    """Latency samples with percentile queries, in bounded memory.

    ``count``/``total``/``mean``/``max`` are exact regardless of volume.
    Percentiles are computed over a uniform reservoir of up to
    ``max_samples`` values: exact while ``count <= max_samples``, an
    unbiased estimate after (Vitter's Algorithm R with a seeded
    :class:`random.Random`, so runs stay reproducible).
    """

    __slots__ = ("max_samples", "_samples", "_count", "_total", "_max", "_rng")

    def __init__(self, max_samples: int = DEFAULT_RESERVOIR, seed: int = 0) -> None:
        if max_samples < 1:
            raise ValueError(f"max_samples must be >= 1, got {max_samples}")
        self.max_samples = max_samples
        self._samples: list[float] = []
        self._count = 0
        self._total = 0.0
        self._max = 0.0
        self._rng = random.Random(seed)

    def add(self, value: float) -> None:
        """Record one sample (seconds)."""
        if value < 0:
            raise ValueError(f"latency must be >= 0, got {value}")
        self._count += 1
        self._total += value
        if value > self._max:
            self._max = value
        if len(self._samples) < self.max_samples:
            self._samples.append(value)
        else:
            slot = self._rng.randrange(self._count)
            if slot < self.max_samples:
                self._samples[slot] = value

    @property
    def count(self) -> int:
        return self._count

    @property
    def total(self) -> float:
        return float(self._total)

    @property
    def mean(self) -> float:
        """Arithmetic mean (exact); 0.0 when empty."""
        if self._count == 0:
            return 0.0
        return self._total / self._count

    def percentile(self, p: float) -> float:
        """The ``p``-th percentile (0-100); 0.0 when empty.

        Exact while no sample has been evicted from the reservoir; an
        unbiased estimate on longer runs.
        """
        if not 0 <= p <= 100:
            raise ValueError(f"percentile must be in [0, 100], got {p}")
        if not self._samples:
            return 0.0
        return float(np.percentile(self._samples, p))

    @property
    def p50(self) -> float:
        return self.percentile(50)

    @property
    def p99(self) -> float:
        return self.percentile(99)

    @property
    def max(self) -> float:
        return self._max

    def samples(self) -> list[float]:
        """A copy of the retained (reservoir) samples."""
        return list(self._samples)

    def __repr__(self) -> str:
        return (
            f"LatencyStats(n={self.count}, mean={self.mean:.4f}, "
            f"p99={self.p99:.4f})"
        )


@dataclass
class EngineMetrics:
    """Counters and latency reservoirs for one engine instance.

    Correctness counters compare the *served* knowledge against the query's
    hidden ground truth: ``served_correct`` counts responses whose knowledge
    matched, ``served_incorrect`` counts semantic-cache mistakes (these are
    what degrade the Figure 13 EM score).
    """

    requests: int = 0
    hits: int = 0
    misses: int = 0
    bypasses: int = 0
    served_correct: int = 0
    served_incorrect: int = 0
    prefetches_issued: int = 0
    prefetch_hits: int = 0
    coalesced_misses: int = 0
    evictions: int = 0
    expirations: int = 0
    recalibrations: int = 0
    #: Requests rejected by serving-layer backpressure (never reached the
    #: cache, so they are *not* part of ``requests``).
    overloaded: int = 0
    #: Requests whose deadline expired mid-miss (response degraded; the
    #: background fetch may still have admitted — also not in ``requests``).
    deadline_exceeded: int = 0
    #: -- degraded outcomes (fault tolerance) --------------------------------
    #: Like ``overloaded``/``deadline_exceeded``, degraded requests never
    #: reach ``record_lookup``: they bump their own counters below and the
    #: ``degraded_latency`` reservoir only, so hit-rate, accuracy, and the
    #: latency percentiles stay comparable across runs with and without
    #: faults.
    #: Requests answered from the last-known-good stale store after the
    #: remote failed or the breaker refused the fetch.
    stale_hits: int = 0
    #: Miss fetches refused up-front because the circuit breaker was open.
    breaker_open_rejects: int = 0
    #: Miss fetches refused because the key recently failed (negative cache).
    negative_cache_hits: int = 0
    #: Stale-while-revalidate refresh flights scheduled in the background.
    background_refreshes: int = 0
    #: Remote fetch flights (including retries-exhausted) that failed.
    fetch_failures: int = 0
    #: Degraded requests with no stale fallback — served an explicit failure.
    failed_requests: int = 0
    #: -- proc-tier fault domains ---------------------------------------------
    #: Shard worker processes respawned by the supervisor after a death.
    worker_restarts: int = 0
    #: Requests routed to a dead/recovering shard that bypassed the cache
    #: with a direct remote fetch (no stale fallback was available).
    shard_down_fetches: int = 0
    total_latency: LatencyStats = field(default_factory=LatencyStats)
    hit_latency: LatencyStats = field(default_factory=LatencyStats)
    miss_latency: LatencyStats = field(default_factory=LatencyStats)
    cache_check_latency: LatencyStats = field(default_factory=LatencyStats)
    remote_latency: LatencyStats = field(default_factory=LatencyStats)
    #: Latency of degraded responses (stale hits and explicit failures);
    #: kept out of ``total_latency`` so fault runs stay stats-comparable.
    degraded_latency: LatencyStats = field(default_factory=LatencyStats)

    @property
    def hit_rate(self) -> float:
        """Validated hits / cacheable requests (bypasses excluded)."""
        cacheable = self.hits + self.misses
        if cacheable == 0:
            return 0.0
        return self.hits / cacheable

    @property
    def accuracy(self) -> float:
        """Fraction of knowledge-bearing responses that were correct."""
        served = self.served_correct + self.served_incorrect
        if served == 0:
            return 1.0
        return self.served_correct / served

    @property
    def offered(self) -> int:
        """Every request that reached an outcome: answered fresh
        (``requests``), answered stale, failed, or rejected by backpressure
        or a deadline — the five outcomes are disjoint."""
        return (
            self.requests
            + self.stale_hits
            + self.failed_requests
            + self.overloaded
            + self.deadline_exceeded
        )

    @property
    def served_fraction(self) -> float:
        """Fraction of offered requests answered with *some* payload (fresh
        or stale); 1.0 before anything was offered. The one definition: load
        reports, the snapshot series and the SLO layer all read it here, on
        a whole run or on a :meth:`since` window of one."""
        offered = self.offered
        if offered == 0:
            return 1.0
        return (self.requests + self.stale_hits) / offered

    @property
    def stale_fraction(self) -> float:
        """Fraction of *served* answers that were stale hits — the staleness
        signal the SLO layer watches (0.0 before anything has been served)."""
        served = self.requests + self.stale_hits
        if served == 0:
            return 0.0
        return self.stale_hits / served

    def counters(self) -> dict[str, int]:
        """Every integer counter by field name (no reservoirs)."""
        return {
            name: value for name, value in vars(self).items() if isinstance(value, int)
        }

    def since(self, before: dict[str, int]) -> "EngineMetrics":
        """What was counted after ``before`` (an earlier :meth:`counters`),
        as an instance of its own — so ``hit_rate`` and ``served_fraction``
        mean on a window of a run exactly what they mean on all of it.
        Reservoirs start empty."""
        return EngineMetrics(
            **{name: value - before[name] for name, value in self.counters().items()}
        )

    def record_lookup(self, status: str) -> None:
        """Bump the counter matching a lookup ``status``."""
        self.requests += 1
        if status == "hit":
            self.hits += 1
        elif status == "miss":
            self.misses += 1
        elif status == "bypass":
            self.bypasses += 1
        else:
            raise ValueError(f"unknown lookup status {status!r}")

    def record_response(self, response, fact_id: str | None) -> None:
        """Account one resolved (non-degraded) response: the lookup counter,
        the latency reservoirs and accuracy — the one ladder every caching
        engine shares, so attribution cannot drift between them.
        ``fact_id`` is the query's ground truth, which a fetch carrying a
        ``truth_key`` is scored against."""
        lookup = response.lookup
        self.record_lookup(lookup.status)
        self.total_latency.add(response.latency)
        if lookup.status != "bypass":
            self.cache_check_latency.add(lookup.latency)
            if lookup.is_hit:
                self.hit_latency.add(response.latency)
                if lookup.truth_match:
                    self.served_correct += 1
                else:
                    self.served_incorrect += 1
                return
            self.miss_latency.add(response.latency)
            # Remote fetches are authoritative; a fetch the fleet's shared
            # tier answered from L2 carries the truth of what it served.
            truth = response.fetch.truth_key
            if truth is None or fact_id is None or truth == fact_id:
                self.served_correct += 1
            else:
                self.served_incorrect += 1
        if response.fetch is not None:
            self.remote_latency.add(response.fetch.latency)

    def reset(self) -> None:
        """Zero every counter and reservoir (e.g. after a warm-up phase)."""
        fresh = EngineMetrics()
        for name, value in vars(fresh).items():
            setattr(self, name, value)

    def summary(self) -> dict:
        """A plain-dict snapshot for printing and serialisation."""
        return {
            "requests": self.requests,
            "hits": self.hits,
            "misses": self.misses,
            "hit_rate": round(self.hit_rate, 4),
            "accuracy": round(self.accuracy, 4),
            "mean_latency": round(self.total_latency.mean, 4),
            "p99_latency": round(self.total_latency.p99, 4),
            "prefetches_issued": self.prefetches_issued,
            "prefetch_hits": self.prefetch_hits,
            "coalesced_misses": self.coalesced_misses,
            "evictions": self.evictions,
            "expirations": self.expirations,
            "recalibrations": self.recalibrations,
            "overloaded": self.overloaded,
            "deadline_exceeded": self.deadline_exceeded,
            "stale_hits": self.stale_hits,
            "breaker_open_rejects": self.breaker_open_rejects,
            "negative_cache_hits": self.negative_cache_hits,
            "background_refreshes": self.background_refreshes,
            "fetch_failures": self.fetch_failures,
            "failed_requests": self.failed_requests,
            "worker_restarts": self.worker_restarts,
            "shard_down_fetches": self.shard_down_fetches,
        }
