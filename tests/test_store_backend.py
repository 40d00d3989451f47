"""Tests for the pluggable cache-backend layer (`repro.store.backend`).

Three things matter here: every backend stack honours the same protocol
contract; every serving engine constructs its cache *through* a backend;
and wrapping the backend changes zero cache decisions — the journaled and
the replicated store replay the bare in-process store decision for decision
on a pinned trace.
"""

import numpy as np

from repro.ann import FlatIndex
from repro.core import AsteriaCache, Query, Sine
from repro.core.config import AsteriaConfig
from repro.core.types import FetchResult
from repro.embedding import HashingEmbedder
from repro.factory import (
    StackSpec,
    build_asteria_engine,
    build_async_engine,
    build_remote,
)
from repro.judger import SimulatedJudger
from repro.store import (
    CacheBackend,
    DELETE_REASONS,
    InProcessBackend,
    JournaledBackend,
    JournalWriter,
    ReplicaNode,
    WrappingBackend,
)
from repro.store.replication import ReplicatingBackend

SEED = 3
N_QUERIES = 180
POPULATION = 40
CONFIG = AsteriaConfig(capacity_items=24)


def fetch(result="answer"):
    return FetchResult(
        result=result, latency=0.4, service_latency=0.4, cost=0.005,
        size_tokens=16,
    )


def make_cache(capacity=None):
    embedder = HashingEmbedder(seed=7)
    sine = Sine(embedder, FlatIndex(embedder.dim), SimulatedJudger(seed=3))
    return AsteriaCache(sine, capacity_items=capacity, default_ttl=3600.0)


def journaled(inner, tmp_path):
    return JournaledBackend(inner, JournalWriter(tmp_path / "journal.jsonl"))


def cache_cases(tmp_path, capacity=None):
    """One cache per backend stack: bare in-process, journaled, replicated."""
    plain = make_cache(capacity=capacity)
    logged = make_cache(capacity=capacity)
    logged.wrap_backend(lambda inner: journaled(inner, tmp_path))
    replicated = make_cache(capacity=capacity)
    ReplicaNode("A", replicated)  # wraps the cache's backend on construction
    return [plain, logged, replicated]


class TestProtocolConformance:
    def test_backends_satisfy_protocol(self, tmp_path):
        plain, logged, replicated = cache_cases(tmp_path)
        assert isinstance(plain.backend, InProcessBackend)
        assert isinstance(logged.backend, JournaledBackend)
        assert isinstance(replicated.backend, ReplicatingBackend)
        for cache in (plain, logged, replicated):
            assert isinstance(cache.backend, CacheBackend), cache.backend

    def test_basic_lifecycle_through_cache(self, tmp_path):
        for cache in cache_cases(tmp_path):
            element = cache.insert(
                Query("who painted the mona lisa", fact_id="F"), fetch(), 0.0
            )
            assert cache.backend.get(element.element_id) is element
            assert element.element_id in cache.elements
            assert list(cache.backend.elements.values()) == [element]
            result = cache.lookup(Query("mona lisa painter", fact_id="F"), 1.0)
            assert result.match is not None
            removed = cache.remove(element.element_id)
            assert removed is element
            assert len(cache) == 0

    def test_delete_reasons_are_tallied(self, tmp_path):
        for cache in cache_cases(tmp_path, capacity=2):
            for index in range(3):
                cache.insert(
                    Query(f"distinct topic {index} walrus", fact_id=f"F{index}"),
                    fetch(),
                    float(index),
                )
            cache.invalidate(lambda element: True)
            stats = cache.backend.stats()
            reasons = stats["deletes_by_reason"]
            assert set(reasons) <= set(DELETE_REASONS)
            assert reasons.get("evict", 0) == 1
            assert reasons.get("invalidate", 0) == 2
            assert stats["deletes"] == 3

    def test_arena_slot_released_on_delete(self):
        engine = build_asteria_engine(build_remote(seed=SEED), seed=SEED)
        cache = engine.cache
        arena = cache.sine.index.arena
        element = cache.insert(Query("topic one", fact_id="F"), fetch(), 0.0)
        assert element.arena_slot in arena
        in_use = len(arena)
        cache.remove(element.element_id)
        assert element.arena_slot is None
        assert len(arena) == in_use - 1

    def test_wrapping_backend_unwraps_to_innermost(self, tmp_path):
        inner = make_cache().backend
        wrapped = journaled(journaled(inner, tmp_path), tmp_path)
        assert wrapped.inner.inner is inner
        assert isinstance(wrapped, WrappingBackend)

    def test_wrap_backend_mid_life_keeps_contents(self, tmp_path):
        cache = make_cache()
        cache.insert(Query("topic one", fact_id="F"), fetch(), 0.0)
        logged = cache.wrap_backend(lambda inner: journaled(inner, tmp_path))
        assert cache.backend is logged
        assert len(cache) == 1
        cache.insert(Query("topic two", fact_id="G"), fetch(), 1.0)
        assert logged.writer.seq > 0


class TestEngineConstruction:
    """Every engine builds its caches through a CacheBackend."""

    def test_sync_engine(self):
        engine = build_asteria_engine(build_remote(seed=SEED), seed=SEED)
        assert isinstance(engine.cache.backend, CacheBackend)

    def test_async_engine(self):
        engine = build_async_engine(build_remote(seed=SEED), seed=SEED)
        assert isinstance(engine.cache.backend, CacheBackend)

    def test_proc_shard_server(self):
        # The worker side of the proc tier, exercised in-process: the shard
        # cache a spawned worker builds goes through the same factory path.
        from repro.serving.proc.worker import WorkerSpec, _ShardServer

        server = _ShardServer(WorkerSpec(0, 1, StackSpec(seed=SEED)))
        assert isinstance(server.cache.backend, CacheBackend)


def _trace():
    rng = np.random.default_rng(SEED)
    ranks = np.minimum(rng.zipf(1.2, size=N_QUERIES), POPULATION)
    return [
        Query(f"pinned fact number {rank} of the corpus", fact_id=f"F{rank}")
        for rank in ranks
    ]


def _run(**stack):
    engine = build_asteria_engine(
        build_remote(seed=SEED), config=CONFIG, seed=SEED, **stack
    )
    responses = [
        engine.handle(query, now=i * 0.01) for i, query in enumerate(_trace())
    ]
    return engine, responses


class TestDecisionEquivalence:
    # Journaled only: a ReplicatingBackend is *meant* to change decisions (a
    # write to a truth key supersedes older entries for it, so regions
    # converge on content), which test_store_replication.py pins.
    def test_journaled_store_replays_inprocess_decisions_exactly(self, tmp_path):
        """Wrapping the element store must change zero cache decisions."""
        base_engine, base_responses = _run()
        engine, responses = _run(persist_dir=tmp_path / "store")
        for base, mirrored in zip(base_responses, responses):
            assert mirrored.result == base.result
            assert mirrored.latency == base.latency
            assert (mirrored.fetch is None) == (base.fetch is None)
        assert engine.metrics.summary() == base_engine.metrics.summary()
        base_stats, stats = base_engine.cache.stats, engine.cache.stats
        assert stats.inserts == base_stats.inserts
        assert stats.evictions == base_stats.evictions
        assert stats.expirations == base_stats.expirations
        assert base_stats.evictions > 0  # the trace forced the policy to act
        assert sorted(engine.cache.elements) == sorted(base_engine.cache.elements)
        # And the journal really rode the mutation stream: every admit and
        # evict (and the touches between them) is a record.
        backend = engine.cache.backend
        assert isinstance(backend, JournaledBackend)
        assert isinstance(backend.inner, InProcessBackend)
        assert backend.writer.seq >= stats.inserts + stats.evictions

    def test_async_engine_runs_over_a_journaled_store(self, tmp_path):
        import asyncio

        engine = build_async_engine(
            build_remote(seed=SEED), seed=SEED, persist_dir=tmp_path / "aio"
        )

        async def drive():
            queries = _trace()[:40]
            return [
                await engine.serve(query, now=i * 0.01)
                for i, query in enumerate(queries)
            ]

        outcomes = asyncio.run(drive())
        assert all(outcome.ok for outcome in outcomes)
        assert engine.metrics.hits > 0
