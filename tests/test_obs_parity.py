"""Metrics parity across the three serving stacks (satellite).

The same pinned-seed workload replayed through the sequential engine, the
asyncio engine (sequential awaits), and the multi-process engine (four
shard workers, sequential awaits) must
expose identical counter totals — hits, misses, stale_hits, fetch_failures —
through the shared :class:`MetricsRegistry`. A blackout window in the middle
of the run forces the degraded paths (stale serving, fetch failure) so the
parity claim covers them too, not just clean lookups. For the proc engine,
parity additionally proves the piggybacked shard-stats aggregation is exact:
its cache counters come from worker replies, not an in-process store.
"""

import asyncio

import numpy as np
import pytest

from repro.core import Query
from repro.core.resilience import CircuitBreaker, ResilienceManager
from repro.factory import (
    build_asteria_engine,
    build_async_engine,
    build_proc_engine,
    build_remote,
)
from repro.network import FaultInjector
from repro.obs import EngineInstrument, MetricsRegistry

SEED = 0
N_QUERIES = 300
POPULATION = 16
TIME_STEP = 0.01
#: Simulated-time blackout covering queries 100..199 — after the cache has
#: warmed, so misses inside it can degrade to stale hits.
BLACKOUT = (1.0, 2.0)

#: The counters the satellite pins across engines.
PARITY_SERIES = (
    ("repro_lookups_total", {"status": "hit"}),
    ("repro_lookups_total", {"status": "miss"}),
    ("repro_lookups_total", {"status": "bypass"}),
    ("repro_outcomes_total", {"outcome": "stale_hit"}),
    ("repro_outcomes_total", {"outcome": "failed"}),
    ("repro_events_total", {"event": "fetch_failures"}),
)


def workload() -> list[Query]:
    rng = np.random.default_rng(SEED)
    ranks = np.minimum(rng.zipf(1.3, size=N_QUERIES), POPULATION)
    return [
        Query(f"stress fact number {rank} of the universe", fact_id=f"F{rank}")
        for rank in ranks
    ]


#: Second fault script: a blackout short enough that the first retry (50 ms
#: backoff after a 50 ms failed attempt) lands past it and succeeds, so the
#: miss is served — and must be *charged* its retry overhead in every tier.
SHORT_BLACKOUT = (1.0, 1.08)


def _remote(blackout=BLACKOUT):
    """A fresh remote with the same deterministic, schedule-driven faults.

    Blackout faults consume no randomness and trigger purely on the
    simulated clock, so every engine sees the identical fault sequence.
    """
    return build_remote(
        seed=SEED, fault_injector=FaultInjector(blackouts=[blackout], seed=SEED)
    )


def _resilience() -> ResilienceManager:
    # A wide-open breaker keeps every fetch attempt flowing, so failure
    # accounting is driven by the blackout schedule alone.
    return ResilienceManager(
        breaker=CircuitBreaker(
            failure_threshold=1.0, window=1024, min_samples=1024
        ),
        seed=SEED,
    )


def run_sync(queries, blackout=BLACKOUT):
    engine = build_asteria_engine(_remote(blackout), seed=SEED, resilience=_resilience())
    for i, query in enumerate(queries):
        engine.handle(query, now=i * TIME_STEP)
    return engine


def run_async(queries, blackout=BLACKOUT):
    engine = build_async_engine(
        _remote(blackout), seed=SEED, resilience=_resilience()
    )

    async def drive():
        for i, query in enumerate(queries):
            await engine.serve(query, now=i * TIME_STEP)
            # Drain per request so stale-refresh admissions land at the same
            # sequence points as the sync engine's inline refresh — their
            # completion order otherwise depends on event-loop scheduling.
            await engine.drain()

    asyncio.run(drive())
    return engine


def run_proc(queries, blackout=BLACKOUT):
    # Four shards against the other arms' one cache: content-key routing
    # co-shards every phrasing of a fact, so the counters still agree.
    engine = build_proc_engine(
        _remote(blackout), seed=SEED, workers=4, resilience=_resilience()
    )

    async def drive():
        async with engine:
            for i, query in enumerate(queries):
                await engine.serve(query, now=i * TIME_STEP)
                await engine.drain()  # same rule as run_async

    asyncio.run(drive())
    return engine


def test_pinned_workload_exposes_identical_counters_across_engines():
    queries = workload()
    registry = MetricsRegistry()
    engines = {
        "sync": run_sync(queries),
        "async": run_async(queries),
        "proc": run_proc(queries),
    }
    for label, engine in engines.items():
        EngineInstrument(registry, label).sync(engine.metrics, cache=engine.cache)

    for name, labels in PARITY_SERIES:
        family = registry.get(name)
        values = {
            label: family.value(engine=label, **labels) for label in engines
        }
        assert len(set(values.values())) == 1, (name, labels, values)

    # The workload actually exercised both the clean and degraded paths —
    # parity over all-zero counters would prove nothing.
    lookups = registry.get("repro_lookups_total")
    outcomes = registry.get("repro_outcomes_total")
    assert lookups.value(engine="sync", status="hit") > 0
    assert lookups.value(engine="sync", status="miss") > 0
    degraded = outcomes.value(
        engine="sync", outcome="stale_hit"
    ) + outcomes.value(engine="sync", outcome="failed")
    assert degraded > 0

    # Latency histograms mirror per-engine with exact counts: every resolved
    # request contributes exactly one total-latency sample.
    latency = registry.get("repro_request_latency_seconds")
    for label, engine in engines.items():
        assert latency.count(engine=label, kind="total") == (
            engine.metrics.requests
        )


def test_retry_overhead_is_charged_identically_across_engines():
    """A retried-then-served miss costs ``lookup + (failed attempts +
    backoff) + fetch`` in every tier — the concurrent tiers used to drop the
    middle term. The lookup term depends on how many candidates each shard
    layout judges, so the comparison is on what misses are charged *beyond*
    their cache check, which only the shared fetch sequence determines."""
    queries = workload()
    engines = {
        "sync": run_sync(queries, SHORT_BLACKOUT),
        "async": run_async(queries, SHORT_BLACKOUT),
        "proc": run_proc(queries, SHORT_BLACKOUT),
    }

    def beyond_lookup(metrics) -> tuple[float, float]:
        checks = metrics.cache_check_latency.total
        return (
            metrics.total_latency.total - checks,
            metrics.miss_latency.total - (checks - metrics.hit_latency.total),
        )

    sync = engines["sync"].metrics
    # The script retried (one failed attempt + one backoff, 50 ms each, per
    # retried flight) and every retry succeeded.
    assert engines["sync"].remote.fault_injector.total_faults > 0
    assert sync.fetch_failures == 0 and sync.failed_requests == 0
    overhead = beyond_lookup(sync)[1] - sync.remote_latency.total
    assert overhead >= 0.1 - 1e-9
    for label, engine in engines.items():
        metrics = engine.metrics
        assert metrics.misses == sync.misses, label
        assert metrics.remote_latency.total == pytest.approx(
            sync.remote_latency.total, abs=1e-9
        ), label
        assert beyond_lookup(metrics) == pytest.approx(
            beyond_lookup(sync), abs=1e-9
        ), label
