"""End-to-end batched serving parity (tentpole acceptance).

The shared embed+ANN stage-1 pass must be reachable from the asyncio
engine and decision-identical to the sequential ``handle_batch``:
``serve_batched`` accumulates a micro-batch window, flushes one
``prepare_batch`` pass, and completes each request through the scalar
serve path, replaying the sync engine's per-query decisions and counter
totals on a pinned-seed workload.

Windows hold *distinct* queries (repeats recur across windows, zipf-style):
a duplicate inside one window is the documented divergence point — the
async path single-flights it against the in-window admission while the sync
batch path re-looks it up — so parity is pinned on the regime the batching
optimisation actually targets.
"""

import asyncio
import dataclasses

import numpy as np

from repro.core import AsteriaConfig, AsteriaEngine, Query
from repro.factory import (
    build_async_engine,
    build_remote,
    build_sharded_cache,
)
from repro.serving.aio import STATUS_DEADLINE, STATUS_OK

SEED = 0
POPULATION = 16
WINDOW = 8
N_WINDOWS = 25
TIME_STEP = 0.05


def windowed_workload() -> list[list[Query]]:
    """Windows of WINDOW distinct queries; popularity recurs across windows."""
    rng = np.random.default_rng(SEED)
    windows = []
    for _ in range(N_WINDOWS):
        ranks = rng.choice(POPULATION, size=WINDOW, replace=False) + 1
        windows.append(
            [
                Query(f"stress fact number {rank} of the universe", fact_id=f"F{rank}")
                for rank in ranks
            ]
        )
    return windows


def int_counters(engine) -> dict[str, int]:
    return {
        name: value
        for name, value in dataclasses.asdict(engine.metrics).items()
        if isinstance(value, int)
    }


def run_sync_batches(windows):
    # The same 4-shard partitioning as the async side: decisions depend on
    # which entries share a shard, so an unsharded reference would only
    # agree where routing happens to co-shard the facts it confuses.
    cache = build_sharded_cache(seed=SEED, shards=4)
    engine = AsteriaEngine(cache, build_remote(seed=SEED), AsteriaConfig())
    decisions = []
    for i, window in enumerate(windows):
        for response in engine.handle_batch(window, now=i * TIME_STEP):
            decisions.append((response.lookup.status, response.result))
    return engine, decisions


def test_async_batched_window_matches_sync_handle_batch():
    windows = windowed_workload()
    sync_engine, sync_decisions = run_sync_batches(windows)

    engine = build_async_engine(
        build_remote(seed=SEED),
        seed=SEED,
        shards=4,
        batch_window=0.05,
        batch_max=WINDOW,
    )

    async def drive():
        outcomes = []
        for i, window in enumerate(windows):
            # batch_max == window size: the last enqueue flushes the whole
            # window in one prepare_batch pass, no timer involved.
            outcomes.extend(
                await asyncio.gather(
                    *(
                        engine.serve_batched(query, now=i * TIME_STEP)
                        for query in window
                    )
                )
            )
        await engine.drain()
        return outcomes

    outcomes = asyncio.run(drive())
    assert all(outcome.status == STATUS_OK for outcome in outcomes)
    decisions = [
        (outcome.response.lookup.status, outcome.response.result)
        for outcome in outcomes
    ]
    assert decisions == sync_decisions
    assert int_counters(engine) == int_counters(sync_engine)


def test_async_partial_window_flushes_on_timer():
    engine = build_async_engine(
        build_remote(seed=SEED),
        seed=SEED,
        batch_window=0.005,
        batch_max=64,
    )

    async def drive():
        # One lone request can never fill batch_max — only the window timer
        # can release it.
        outcome = await engine.serve_batched(
            Query("stress fact number 1 of the universe", fact_id="F1")
        )
        await engine.drain()
        return outcome

    outcome = asyncio.run(drive())
    assert outcome.status == STATUS_OK
    assert outcome.response.lookup.status == "miss"


def test_async_deadline_expires_inside_window_wait():
    engine = build_async_engine(
        build_remote(seed=SEED),
        seed=SEED,
        batch_window=0.5,
        batch_max=64,
    )

    async def drive():
        outcome = await engine.serve_batched(
            Query("stress fact number 1 of the universe", fact_id="F1"),
            deadline=0.01,
        )
        # The late flush must tolerate the abandoned waiter.
        await engine.drain()
        return outcome

    outcome = asyncio.run(drive())
    assert outcome.status == STATUS_DEADLINE


def test_async_batched_mixed_with_bypass_tools():
    """Uncacheable tools ride through the window without joining stage 1."""
    engine = build_async_engine(
        build_remote(seed=SEED),
        AsteriaConfig(cacheable_tools=("search",)),
        seed=SEED,
        batch_window=0.005,
        batch_max=4,
    )

    async def drive():
        queries = [
            Query("stress fact number 1 of the universe", fact_id="F1"),
            Query("write to scratchpad", fact_id="F1", tool="file"),
            Query("stress fact number 2 of the universe", fact_id="F2"),
            Query("stress fact number 3 of the universe", fact_id="F3"),
        ]
        outcomes = await asyncio.gather(
            *(engine.serve_batched(query) for query in queries)
        )
        await engine.drain()
        return outcomes

    outcomes = asyncio.run(drive())
    assert [outcome.response.lookup.status for outcome in outcomes] == [
        "miss",
        "bypass",
        "miss",
        "miss",
    ]
