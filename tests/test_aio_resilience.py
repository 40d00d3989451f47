"""Fault tolerance on the asyncio serving front-end."""

import asyncio

import numpy as np
import pytest

from repro.core import AsteriaConfig, Query
from repro.core.resilience import CircuitBreaker, ResilienceManager
from repro.factory import build_async_engine, build_remote
from repro.network import FaultInjector
from repro.serving.aio import (
    STATUS_FAILED,
    STATUS_OK,
    STATUS_STALE,
    run_open_loop,
)


def make_engine(fault_injector=None, config=None, resilience=None, seed=0):
    return build_async_engine(
        build_remote(latency=0.4, seed=seed, fault_injector=fault_injector),
        config=config,
        seed=seed,
        resilience=resilience,
    )


class TestAsyncBreakerTransitions:
    def test_closed_open_halfopen_closed_cycle(self):
        """The same deterministic breaker walk as the sync engine's: a
        blackout trips it, rejections follow, recovery probes close it."""
        resilience = ResilienceManager(
            breaker=CircuitBreaker(
                failure_threshold=0.5,
                window=8,
                min_samples=4,
                open_seconds=5.0,
                half_open_probes=2,
            ),
        )
        engine = make_engine(
            fault_injector=FaultInjector(blackouts=[(0.0, 10.0)]),
            resilience=resilience,
        )

        async def scenario():
            for i in range(4):
                outcome = await engine.serve(
                    Query(f"unrelated subject number {i} entirely"), float(i)
                )
                assert outcome.status == STATUS_FAILED
                assert outcome.response is None
            assert resilience.breaker.state == "open"
            assert engine.metrics.fetch_failures == 4
            faults_so_far = engine.engine.remote.fault_injector.total_faults

            rejected = await engine.serve(Query("one more distinct question"), 4.0)
            assert rejected.status == STATUS_FAILED
            assert engine.metrics.breaker_open_rejects == 1
            # Refused up-front: no new flight reached the injector.
            assert (
                engine.engine.remote.fault_injector.total_faults == faults_so_far
            )

            for i, t in enumerate((20.0, 21.0)):
                probe = await engine.serve(
                    Query(f"fresh probe question {i} here"), t
                )
                assert probe.status == STATUS_OK
            assert resilience.breaker.state == "closed"
            assert resilience.breaker.closes == 1
            await engine.drain()

        asyncio.run(scenario())

    def test_degraded_outcomes_do_not_touch_hit_miss_stats(self):
        engine = make_engine(
            fault_injector=FaultInjector(blackouts=[(0.0, 100.0)])
        )

        async def scenario():
            for i in range(3):
                await engine.serve(
                    Query(f"unrelated subject number {i} entirely"), float(i)
                )

        asyncio.run(scenario())
        assert engine.metrics.requests == 0
        assert engine.metrics.hits == 0
        assert engine.metrics.misses == 0
        assert engine.metrics.failed_requests == 3
        assert engine.metrics.degraded_latency.count == 3


class TestAsyncStaleServing:
    def test_expired_entry_served_as_explicit_stale_hit(self):
        engine = make_engine(
            fault_injector=FaultInjector(blackouts=[(4.0, 100.0)]),
            config=AsteriaConfig(default_ttl=1.0),
        )
        query = Query("who painted the mona lisa", fact_id="F")

        async def scenario():
            first = await engine.serve(query, 0.0)
            assert first.status == STATUS_OK
            misses_before = engine.metrics.misses

            stale = await engine.serve(query, 5.0)
            assert stale.status == STATUS_STALE
            assert stale.served and not stale.ok
            assert stale.response.result == first.response.result
            assert engine.metrics.stale_hits == 1
            assert engine.metrics.misses == misses_before
            await engine.drain()

        asyncio.run(scenario())

    def test_no_stale_fallback_yields_explicit_failure(self):
        engine = make_engine(
            fault_injector=FaultInjector(blackouts=[(4.0, 100.0)]),
            config=AsteriaConfig(default_ttl=1.0),
        )
        # First asked inside the blackout: nothing was ever banked for it.
        never_banked = Query("boiling point of water at sea level", fact_id="G")

        async def scenario():
            await engine.serve(Query("who painted the mona lisa", fact_id="F"), 0.0)
            outcome = await engine.serve(never_banked, 5.0)
            assert outcome.status == STATUS_FAILED
            assert outcome.response is None
            assert engine.metrics.stale_hits == 0

        asyncio.run(scenario())

    def test_negative_cache_and_background_refresh(self):
        """Stale-while-revalidate: the refused request is answered stale
        while a background task revalidates; after drain() the cache is
        fresh again."""
        engine = make_engine(
            fault_injector=FaultInjector(blackouts=[(4.9, 5.5)]),
            config=AsteriaConfig(default_ttl=1.0),
        )
        query = Query("who painted the mona lisa", fact_id="F")

        async def scenario():
            first = await engine.serve(query, 0.0)

            failed_flight = await engine.serve(query, 5.0)  # in the blackout
            assert failed_flight.status == STATUS_STALE
            assert engine.metrics.fetch_failures == 1

            negative = await engine.serve(query, 6.0)
            assert negative.status == STATUS_STALE
            assert engine.metrics.negative_cache_hits == 1
            assert engine.metrics.background_refreshes == 1
            await engine.drain()  # let the revalidation flight land

            recovered = await engine.serve(query, 6.5)
            assert recovered.status == STATUS_OK
            assert recovered.response.served_from_cache
            assert recovered.response.result == first.response.result

        asyncio.run(scenario())


class TestOutcomeConservation:
    def test_every_request_resolves_to_exactly_one_outcome(self):
        """Under sustained chaos, outcome counts partition the request set —
        nothing is dropped, nothing is double-counted."""
        rng = np.random.default_rng(0)
        ranks = np.minimum(rng.zipf(1.3, size=300), 64)
        queries = [
            Query(f"stress fact number {rank} of the universe", fact_id=f"F{rank}")
            for rank in ranks
        ]
        # Which flights draw a random fault depends on how arrivals coalesce,
        # which depends on scheduling. The blackout does not: a fact first
        # asked inside it misses whatever ran before, and every attempt of its
        # flight fails (or a prior failure already opened the breaker).
        blackout = (2.0, 4.0)
        first_asked = {}
        for i, query in enumerate(queries):
            first_asked.setdefault(query.fact_id, i * 0.01)
        assert any(blackout[0] <= t < blackout[1] for t in first_asked.values())
        engine = make_engine(
            fault_injector=FaultInjector(
                error_rate=0.2, timeout_rate=0.1, blackouts=[blackout], seed=0
            ),
            config=AsteriaConfig(default_ttl=2.0),
            resilience=ResilienceManager(
                breaker=CircuitBreaker(window=16, min_samples=8, open_seconds=0.5),
                negative_ttl=0.3,
            ),
        )
        report = asyncio.run(
            run_open_loop(engine, queries, rate=5000.0, time_step=0.01)
        )
        accounted = (
            report.completed
            + report.stale_served
            + report.failed
            + report.overloaded
            + report.deadline_exceeded
        )
        assert accounted == report.requests == 300
        assert report.served_fraction == pytest.approx(
            (report.completed + report.stale_served) / 300
        )
        assert engine.metrics.fetch_failures > 0