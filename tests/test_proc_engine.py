"""End-to-end tests of the multi-process serving tier (in-process router).

These spawn real worker processes; they are the tentpole's integration
proof: lookups and inserts cross the wire, hits come back with payloads,
cross-process single-flight coalesces concurrent misses, and shutdown is
clean (no leaked processes).
"""

import asyncio

import pytest

from repro.core import Query
from repro.factory import build_proc_engine, build_remote


def _queries(n, population=6):
    return [
        Query(f"stress fact number {i % population} of the universe", fact_id=f"F{i % population}")
        for i in range(n)
    ]


def test_proc_engine_serves_hits_and_misses():
    remote = build_remote(seed=0)
    engine = build_proc_engine(remote, seed=0, workers=2)

    async def drive():
        async with engine:
            for i, query in enumerate(_queries(40)):
                outcome = await engine.serve(query, now=i * 0.01)
                assert outcome.ok, outcome
                assert outcome.response is not None
                assert outcome.response.result

    asyncio.run(drive())
    metrics = engine.metrics
    assert metrics.requests == 40
    assert metrics.hits > 0
    assert metrics.misses > 0
    assert metrics.hits + metrics.misses == 40
    # Piggybacked shard stats aggregate to the remote-call count: one insert
    # per non-coalesced miss.
    assert engine.cache.stats.inserts == remote.calls
    assert engine.cache.usage() == 6
    # All worker processes exited with the pool.
    assert not engine.pool.processes


def test_proc_engine_coalesces_concurrent_misses_across_processes():
    remote = build_remote(seed=0)
    # A real wall-clock pause on fetches keeps the leader in flight long
    # enough for the followers to pile onto the single-flight entry.
    engine = build_proc_engine(remote, seed=0, workers=2, io_pause_scale=0.2)
    query = Query("one very hot fact", fact_id="F0")

    async def drive():
        async with engine:
            return await asyncio.gather(
                *(engine.serve(query, now=0.0) for _ in range(5))
            )

    outcomes = asyncio.run(drive())
    assert all(outcome.ok for outcome in outcomes)
    assert remote.calls == 1  # one fetch for five concurrent misses
    assert engine.metrics.coalesced_misses == 4
    assert engine.metrics.misses == 5  # followers record misses too
    assert engine.cache.stats.inserts == 1  # ...but only the leader admits


def test_worker_spec_requires_policy_name():
    with pytest.raises(TypeError):
        from repro.core.eviction import LCFUPolicy

        build_proc_engine(
            build_remote(seed=0), workers=2, policy=LCFUPolicy(), launch=False
        )
