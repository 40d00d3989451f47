"""Acceptance: ``workers=1`` proc engine replays the single-process engine.

Same seed, same pinned zipf trace, sequential serving on both sides: every
response payload, every simulated latency, every counter, and the cache
stats must match the plain :class:`AsteriaEngine` exactly. The worker does
the embed/ANN/judge/insert work in another process, the router does the
fetch — if any of the wire conversions, the frame batching preamble, or the
piggybacked stats accounting diverged from the in-process path, this test
is where it shows.
"""

import asyncio

import numpy as np

from dataclasses import replace

from repro.core import Query
from repro.core.config import AsteriaConfig
from repro.factory import build_asteria_engine, build_proc_engine, build_remote

SEED = 3
N_QUERIES = 220
POPULATION = 48
TIME_STEP = 0.01
#: Small enough that the pinned trace forces evictions through the policy.
CONFIG = AsteriaConfig(capacity_items=24)


def _trace():
    rng = np.random.default_rng(SEED)
    ranks = np.minimum(rng.zipf(1.2, size=N_QUERIES), POPULATION)
    return [
        Query(f"pinned fact number {rank} of the corpus", fact_id=f"F{rank}")
        for rank in ranks
    ]


def _run_sync(queries):
    engine = build_asteria_engine(build_remote(seed=SEED), config=CONFIG, seed=SEED)
    responses = [
        engine.handle(query, now=i * TIME_STEP) for i, query in enumerate(queries)
    ]
    return engine, responses


def _run_proc(queries):
    engine = build_proc_engine(build_remote(seed=SEED), config=CONFIG, seed=SEED, workers=1)

    async def drive():
        async with engine:
            return [
                await engine.serve(query, now=i * TIME_STEP)
                for i, query in enumerate(queries)
            ]

    outcomes = asyncio.run(drive())
    return engine, outcomes


def test_single_worker_proc_engine_replays_sync_engine_exactly():
    queries = _trace()
    sync_engine, sync_responses = _run_sync(queries)
    proc_engine, proc_outcomes = _run_proc(queries)

    # Per-request equivalence: payload and simulated latency.
    assert len(sync_responses) == len(proc_outcomes) == N_QUERIES
    for sync_response, outcome in zip(sync_responses, proc_outcomes):
        assert outcome.ok
        assert outcome.response.result == sync_response.result
        assert outcome.response.latency == sync_response.latency

    # Counter equivalence: every EngineMetrics field the summary exposes.
    assert proc_engine.metrics.summary() == sync_engine.metrics.summary()

    # Cache-side equivalence via the piggybacked shard stats.
    sync_stats = sync_engine.cache.stats
    proc_stats = proc_engine.cache.stats
    assert proc_stats.inserts == sync_stats.inserts
    assert proc_stats.evictions == sync_stats.evictions
    assert proc_stats.expirations == sync_stats.expirations
    assert proc_stats.rejected_duplicates == sync_stats.rejected_duplicates
    assert proc_engine.cache.usage() == sync_engine.cache.usage()

    # The pinned trace actually exercised the interesting paths.
    assert sync_engine.metrics.hits > 0
    assert sync_engine.metrics.misses > 0
    assert sync_stats.evictions > 0


def test_single_worker_proc_engine_replays_sync_recalibration_exactly():
    """Algorithm 1 at the router: each lookup frame carries the router's
    tau_lsm, so the worker's threshold after every request is the one the
    sync engine holds after the same request."""
    config = replace(
        CONFIG,
        recalibration_enabled=True,
        recalibration_interval=0.25,
        recalibration_samples=20,
    )
    queries = _trace()
    sync_engine = build_asteria_engine(build_remote(seed=SEED), config=config, seed=SEED)
    sync_taus = []
    for i, query in enumerate(queries):
        sync_engine.handle(query, now=i * TIME_STEP)
        sync_taus.append(sync_engine.cache.sine.tau_lsm)
    proc_engine = build_proc_engine(
        build_remote(seed=SEED), config=config, seed=SEED, workers=1
    )

    async def drive():
        taus = []
        async with proc_engine:
            for i, query in enumerate(queries):
                await proc_engine.serve(query, now=i * TIME_STEP)
                [shard] = await proc_engine.pool.stats()
                taus.append(shard["tau_lsm"])
        return taus

    assert asyncio.run(drive()) == sync_taus
    assert proc_engine.metrics.summary() == sync_engine.metrics.summary()
    assert sync_engine.metrics.recalibrations >= 5
    assert len(set(sync_taus)) > 2  # the threshold really moved, more than once


def test_warm_restarted_proc_engine_replays_sync_engine_exactly(tmp_path):
    """Durability acceptance: a proc engine stopped gracefully mid-trace and
    rebuilt from its snapshot+journal must continue making the decisions the
    never-restarted sync engine makes — same payloads, same latencies, same
    cumulative cache stats.

    The same remote object serves both proc halves so its latency rng stays
    on the sync engine's timeline; everything cache-side must come back from
    disk.
    """
    queries = _trace()
    split = N_QUERIES // 2
    sync_engine, sync_responses = _run_sync(queries)

    remote = build_remote(seed=SEED)

    async def drive(engine, chunk, offset):
        async with engine:
            return [
                await engine.serve(query, now=(offset + i) * TIME_STEP)
                for i, query in enumerate(chunk)
            ]

    first = build_proc_engine(
        remote, config=CONFIG, seed=SEED, workers=1, persist_dir=tmp_path
    )
    outcomes = asyncio.run(drive(first, queries[:split], 0))
    first_hits = first.metrics.hits
    # Graceful shutdown checkpointed the worker's shard store; the restart
    # below restores from that snapshot on the original timeline.
    second = build_proc_engine(
        remote, config=CONFIG, seed=SEED, workers=1, persist_dir=tmp_path
    )
    outcomes += asyncio.run(drive(second, queries[split:], split))

    assert len(outcomes) == N_QUERIES
    for sync_response, outcome in zip(sync_responses, outcomes):
        assert outcome.ok
        assert outcome.response.result == sync_response.result
        assert outcome.response.latency == sync_response.latency

    # Router metrics reset at restart; the halves must sum to the sync run.
    assert first_hits + second.metrics.hits == sync_engine.metrics.hits

    # Cache stats are cumulative across the restart (restored with the
    # snapshot), so the final counters match the uninterrupted run.
    sync_stats = sync_engine.cache.stats
    warm_stats = second.cache.stats
    assert warm_stats.inserts == sync_stats.inserts
    assert warm_stats.evictions == sync_stats.evictions
    assert warm_stats.expirations == sync_stats.expirations
    assert warm_stats.rejected_duplicates == sync_stats.rejected_duplicates
    assert second.cache.usage() == sync_engine.cache.usage()

    # The restart actually restored state rather than starting cold.
    assert first_hits > 0
    assert second.metrics.hits > 0
    assert sync_stats.evictions > 0
