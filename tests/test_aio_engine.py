"""Tests for the asyncio serving front-end (engine + load generators)."""

import asyncio

import numpy as np
import pytest

from repro.core import AsteriaConfig, Query
from repro.factory import (
    build_asteria_engine,
    build_async_engine,
    build_remote,
)
from repro.serving.aio import (
    STATUS_DEADLINE,
    STATUS_OK,
    STATUS_OVERLOADED,
    AsyncAsteriaEngine,
    run_open_loop,
)


def zipf_queries(n: int = 300, population: int = 64, seed: int = 0) -> list[Query]:
    rng = np.random.default_rng(seed)
    ranks = np.minimum(rng.zipf(1.3, size=n), population)
    return [
        Query(f"stress fact number {rank} of the universe", fact_id=f"F{rank}")
        for rank in ranks
    ]


async def callers(engine, queries, count: int, time_step: float = 0.0) -> None:
    """``count`` closed-loop callers: each serves the next query and waits
    for its outcome before taking another (query *i* at ``i * time_step``)."""
    cursor = iter(enumerate(queries))

    async def caller() -> None:
        for i, query in cursor:
            await engine.serve(query, i * time_step)

    await asyncio.gather(*(caller() for _ in range(count)))
    await engine.drain()


class TestGuards:
    def test_rejects_bad_parameters(self):
        engine = build_asteria_engine(build_remote())
        with pytest.raises(ValueError):
            AsyncAsteriaEngine(engine, max_inflight=0)
        with pytest.raises(ValueError):
            AsyncAsteriaEngine(engine, default_deadline=0.0)


class TestSequentialParity:
    def test_serve_matches_sequential_engine(self):
        """One-at-a-time async serving replays the sequential engine."""
        config = AsteriaConfig()
        sequential = build_asteria_engine(build_remote(seed=7), config, seed=3)
        aio = build_async_engine(build_remote(seed=7), config, seed=3)

        async def scenario():
            for i, query in enumerate(zipf_queries(150)):
                now = 0.3 * i
                a = sequential.handle(query, now)
                outcome = await aio.serve(query, now)
                assert outcome.status == STATUS_OK
                b = outcome.response
                assert a.lookup.status == b.lookup.status, f"diverged at {i}"
                assert a.result == b.result
                assert a.latency == pytest.approx(b.latency)

        asyncio.run(scenario())
        assert sequential.metrics.summary() == aio.metrics.summary()


class TestBackpressure:
    def test_overload_rejects_beyond_depth_without_corrupting_stats(self):
        engine = build_async_engine(
            build_remote(latency=0.1),
            io_pause_scale=0.2,  # each miss pends ~20 ms on the loop
            max_inflight=2,
        )
        queries = [
            Query(f"distinct overload topic {i} heron", fact_id=f"O{i}")
            for i in range(10)
        ]

        async def scenario():
            outcomes = await asyncio.gather(
                *(engine.serve(query, 0.0) for query in queries)
            )
            await engine.drain()
            return outcomes

        outcomes = asyncio.run(scenario())
        accepted = [o for o in outcomes if o.ok]
        rejected = [o for o in outcomes if o.status == STATUS_OVERLOADED]
        assert len(accepted) == 2
        assert len(rejected) == 8
        for outcome in rejected:
            assert outcome.response is None
        metrics = engine.metrics
        # Rejected requests never touch the cache or the hit/miss counters.
        assert metrics.overloaded == 8
        assert metrics.requests == 2
        assert metrics.hits + metrics.misses == 2
        assert engine.cache.stats.inserts == 2
        assert engine.singleflight.leaders == 2

    def test_capacity_frees_as_requests_complete(self):
        engine = build_async_engine(
            build_remote(latency=0.05), io_pause_scale=0.1, max_inflight=4
        )
        queries = [
            Query(f"distinct refill topic {i} plover", fact_id=f"R{i}")
            for i in range(12)
        ]

        # Closed loop at the admission depth: never rejects.
        asyncio.run(callers(engine, queries, 4))
        assert engine.metrics.overloaded == 0
        assert engine.metrics.requests == 12


class TestDeadlines:
    def test_miss_degrades_to_deadline_exceeded_and_admission_still_lands(self):
        engine = build_async_engine(
            build_remote(latency=0.4),
            io_pause_scale=0.5,  # a miss pends ~200 ms of wall clock
            default_deadline=0.05,
        )
        query = Query("deadline sensitive fact about auroras", fact_id="D1")

        async def scenario():
            first = await engine.serve(query, 0.0)
            # The background flight keeps running and admits its result.
            await engine.drain()
            second = await engine.serve(query, 1.0)
            return first, second

        first, second = asyncio.run(scenario())
        assert first.status == STATUS_DEADLINE
        assert first.response is None
        assert first.wall_latency < 0.2  # returned at the deadline, not the fetch
        metrics = engine.metrics
        assert metrics.deadline_exceeded == 1
        # The expired request is not counted as served...
        assert metrics.requests == 1  # only the second, successful serve
        # ...but the leader's fetch still admitted into the cache,
        assert engine.cache.stats.inserts == 1
        # so the retry is a sub-deadline cache hit.
        assert second.status == STATUS_OK
        assert second.response.served_from_cache

    def test_hits_are_not_affected_by_deadlines(self):
        engine = build_async_engine(build_remote(latency=0.4), io_pause_scale=0.5)
        query = Query("deadline immune fact about glaciers", fact_id="D2")

        async def scenario():
            await engine.serve(query, 0.0)  # warm the cache (no deadline)
            return await engine.serve(query, 1.0, deadline=0.01)

        outcome = asyncio.run(scenario())
        assert outcome.status == STATUS_OK
        assert outcome.response.served_from_cache


class TestLoadGenerators:
    def test_closed_loop_accounting_invariants(self):
        queries = zipf_queries(300)
        engine = build_async_engine(build_remote(), io_pause_scale=0.002)
        asyncio.run(callers(engine, queries, 16, time_step=0.01))
        metrics = engine.metrics
        assert metrics.offered == metrics.requests == 300
        assert metrics.hits + metrics.misses + metrics.bypasses == 300
        # Every non-coalesced miss is one leader flight = one remote call.
        assert engine.remote.calls == engine.singleflight.leaders
        assert metrics.coalesced_misses == engine.singleflight.shared
        assert metrics.misses == engine.remote.calls + metrics.coalesced_misses
        # No lost updates: every admitted fetch is in the cache.
        stats = engine.cache.stats
        assert stats.inserts == engine.remote.calls
        assert len(engine.cache) == stats.inserts - stats.evictions - stats.expirations

    def test_open_loop_fixed_arrivals_conserve_outcomes(self):
        queries = zipf_queries(200, seed=1)
        engine = build_async_engine(build_remote(seed=1), seed=1, io_pause_scale=0.002)
        report = asyncio.run(
            run_open_loop(engine, queries, rate=5000.0, time_step=0.01)
        )
        assert report.mode == "open"
        assert report.rate == 5000.0
        assert report.requests == 200
        assert (
            report.completed + report.overloaded + report.deadline_exceeded == 200
        )
        assert report.throughput_rps > 0
        # The open loop must take at least n/rate wall seconds by design.
        assert report.wall_seconds >= 200 / 5000.0

    def test_open_loop_overload_outcomes_are_reported(self):
        queries = [
            Query(f"distinct flood topic {i} gannet", fact_id=f"L{i}")
            for i in range(60)
        ]
        engine = build_async_engine(
            build_remote(latency=0.2),
            io_pause_scale=0.2,  # every miss pends ~40 ms
            max_inflight=4,
        )
        report = asyncio.run(
            run_open_loop(engine, queries, rate=10_000.0)
        )
        assert report.overloaded > 0
        assert report.completed + report.overloaded == 60
        assert engine.metrics.overloaded == report.overloaded
        # Stats stay coherent: only completed misses fetched and admitted.
        assert engine.cache.stats.inserts == engine.singleflight.leaders

    def test_rejects_bad_load_parameters(self):
        engine = build_async_engine(build_remote())
        with pytest.raises(ValueError):
            asyncio.run(run_open_loop(engine, [], rate=0.0))
