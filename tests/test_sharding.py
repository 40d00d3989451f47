"""Tests for the sharded thread-safe cache layer."""

import dataclasses
import threading

import pytest

from repro.core import AsteriaConfig, AsteriaEngine, Query, ShardedAsteriaCache
from repro.core.sharding import shard_index_for
from repro.factory import (
    build_asteria_engine,
    build_remote,
    build_sharded_cache,
)


def trace(n: int = 120, population: int = 30) -> list[Query]:
    """A fixed trace with repeats, paraphrases, and distinct facts."""
    queries = []
    for i in range(n):
        rank = (i * 7) % population
        if i % 3 == 0:
            text = f"what is the height of mountain number {rank}"
        elif i % 3 == 1:
            text = f"ok the height of mountain number {rank} please"
        else:
            text = f"mountain number {rank} height"
        queries.append(Query(text, fact_id=f"F{rank}"))
    return queries


class TestShardRouting:
    def test_stable_and_canonical(self):
        assert shard_index_for("Hello  World", 4) == shard_index_for(
            "hello world", 4
        )
        # crc32 is process-independent; pin one value so accidental hash
        # changes (which would scatter persisted deployments) fail loudly.
        import zlib

        assert shard_index_for("hello world", 4) == zlib.crc32(b"hello world") % 4

    def test_same_text_same_shard(self):
        cache = build_sharded_cache(shards=4)
        texts = [f"fact number {i}" for i in range(50)]
        for text in texts:
            assert cache.shard_index(text) == cache.shard_index(text.upper())

    def test_all_shards_used(self):
        cache = build_sharded_cache(shards=4)
        used = {cache.shard_index(f"fact number {i}") for i in range(200)}
        assert used == {0, 1, 2, 3}

    def test_needs_at_least_one_shard(self):
        with pytest.raises(ValueError):
            ShardedAsteriaCache([])
        with pytest.raises(ValueError):
            build_sharded_cache(shards=0)


class TestShardedCacheSemantics:
    def test_insert_routes_to_hashed_shard(self):
        cache = build_sharded_cache(shards=4)
        engine = AsteriaEngine(cache, build_remote(), AsteriaConfig())
        queries = [Query(f"fact number {i}", fact_id=f"F{i}") for i in range(40)]
        hits = 0
        for query in queries:
            response = engine.handle(query, 0.0)
            hits += response.served_from_cache
        per_shard = cache.usage_per_shard()
        # Near-paraphrase texts may hit an earlier entry instead of inserting.
        assert sum(per_shard) == 40 - hits
        for query in queries:
            shard = cache.shard_index(query.text)
            assert cache.shards[shard].sine.candidates_for(query)

    def test_aggregate_stats_are_exact_sums(self):
        cache = build_sharded_cache(
            AsteriaConfig(capacity_items=16), shards=4
        )
        engine = AsteriaEngine(cache, build_remote(), AsteriaConfig())
        for i in range(60):
            engine.handle(Query(f"distinct topic {i} kangaroo", fact_id=f"T{i}"), float(i))
        aggregate = cache.stats
        per_shard = cache.stats_per_shard()
        for field in dataclasses.fields(type(aggregate)):
            assert getattr(aggregate, field.name) == sum(
                getattr(stats, field.name) for stats in per_shard
            )
        assert aggregate.inserts == 60 - engine.metrics.hits
        assert aggregate.evictions > 0  # capacity 16(+rounding) over 60 inserts

    def test_capacity_split_and_eviction(self):
        cache = build_sharded_cache(AsteriaConfig(capacity_items=8), shards=4)
        assert cache.capacity_items == 8  # 2 per shard
        engine = AsteriaEngine(cache, build_remote(), AsteriaConfig())
        for i in range(40):
            engine.handle(Query(f"distinct topic {i} wombat", fact_id=f"T{i}"), float(i))
        for shard in cache.shards:
            assert len(shard) <= 2

    def test_ttl_purge_sweeps_every_shard(self):
        cache = build_sharded_cache(AsteriaConfig(default_ttl=10.0), shards=4)
        engine = AsteriaEngine(
            cache, build_remote(), AsteriaConfig(default_ttl=10.0)
        )
        for i in range(20):
            engine.handle(Query(f"fact number {i}", fact_id=f"F{i}"), 0.0)
        assert len(cache) == 20
        removed = cache.remove_expired(1000.0)
        assert removed >= 19  # admissions at ~0.4s may straddle the batch stamp
        assert len(cache) + removed == 20
        assert cache.stats.expirations == removed

    def test_invalidate_sweeps_every_shard(self):
        cache = build_sharded_cache(shards=4)
        engine = AsteriaEngine(cache, build_remote(), AsteriaConfig())
        for i in range(20):
            engine.handle(Query(f"fact number {i}", fact_id=f"F{i}"), 0.0)
        removed = cache.invalidate(lambda element: "1" in element.key)
        assert removed == sum(1 for i in range(20) if "1" in f"fact number {i}")
        assert len(cache) == 20 - removed

    def test_insert_rejects_a_ttl_that_is_already_over(self):
        cache = build_sharded_cache(shards=4)
        query = Query("fact number 1", fact_id="F1")
        fetched = build_remote().fetch_at(query, 0.0)
        with pytest.raises(ValueError, match="ttl must be > 0"):
            cache.insert(query, fetched, 0.0, ttl=0.0)
        assert len(cache) == 0 and cache.stats.inserts == 0
        assert cache.insert(query, fetched, 0.0, ttl=5.0).expires_at == 5.0

    def test_sine_broadcast_thresholds(self):
        cache = build_sharded_cache(shards=3)
        cache.sine.tau_lsm = 0.5
        assert cache.sine.tau_lsm == 0.5
        assert all(shard.sine.tau_lsm == 0.5 for shard in cache.shards)
        engine = AsteriaEngine(
            cache, build_remote(), AsteriaConfig(tau_sim=0.6, tau_lsm=0.8)
        )
        assert all(shard.sine.tau_sim == 0.6 for shard in cache.shards)
        assert all(shard.sine.tau_lsm == 0.8 for shard in cache.shards)
        assert engine.cache is cache


class TestSingleShardEquivalence:
    """shards=1, workers=1 must replay the unsharded cache exactly."""

    def test_lookup_decisions_identical(self):
        config = AsteriaConfig(capacity_items=20, default_ttl=50.0)
        plain = build_asteria_engine(build_remote(seed=7), config, seed=3)
        sharded_cache = build_sharded_cache(config, seed=3, shards=1)
        sharded = AsteriaEngine(
            sharded_cache, build_remote(seed=7), config, name="sharded"
        )
        for i, query in enumerate(trace()):
            now = 0.5 * i
            a = plain.handle(query, now)
            b = sharded.handle(query, now)
            assert a.lookup.status == b.lookup.status, f"diverged at {i}"
            assert a.lookup.candidates == b.lookup.candidates
            assert a.lookup.judged == b.lookup.judged
            assert a.result == b.result
            assert a.latency == pytest.approx(b.latency)
        assert plain.metrics.summary() == sharded.metrics.summary()
        assert dataclasses.asdict(plain.cache.stats) == dataclasses.asdict(
            sharded_cache.stats
        )

    def test_batch_path_identical(self):
        config = AsteriaConfig()
        plain = build_asteria_engine(build_remote(seed=7), config, seed=3)
        sharded_cache = build_sharded_cache(config, seed=3, shards=1)
        sharded = AsteriaEngine(sharded_cache, build_remote(seed=7), config)
        queries = trace(60)
        for offset in range(0, 60, 20):
            batch = queries[offset : offset + 20]
            a = plain.handle_batch(batch, float(offset))
            b = sharded.handle_batch(batch, float(offset))
            assert [r.lookup.status for r in a] == [r.lookup.status for r in b]
        assert plain.metrics.summary() == sharded.metrics.summary()


class TestShardedBatchPaths:
    def test_lookup_batch_matches_scalar_lookups(self):
        config = AsteriaConfig()
        reference = build_sharded_cache(config, seed=3, shards=4)
        batched = build_sharded_cache(config, seed=3, shards=4)
        # Populate both caches identically through direct inserts.
        remote = build_remote(seed=1)
        for i in range(30):
            query = Query(f"what is the height of mountain number {i}", fact_id=f"F{i}")
            fetch = remote.fetch_at(query, 0.0)
            reference.insert(query, fetch, 1.0)
            batched.insert(query, fetch, 1.0)
        probes = trace(40)
        scalar_results = [reference.lookup(q, 2.0) for q in probes]
        batch_results = batched.lookup_batch(probes, 2.0)
        for a, b in zip(scalar_results, batch_results):
            assert (a.match is None) == (b.match is None)
            if a.match is not None:
                assert a.match.key == b.match.key
            assert [hit.key for hit in a.candidates] == [
                hit.key for hit in b.candidates
            ]

    def test_prepare_batch_groups_by_shard(self):
        cache = build_sharded_cache(shards=4)
        remote = build_remote(seed=1)
        inserted = []
        for i in range(24):
            query = Query(f"fact number {i}", fact_id=f"F{i}")
            fetch = remote.fetch_at(query, 0.0)
            cache.insert(query, fetch, 0.0)
            inserted.append(query)
        texts = [query.text for query in inserted]
        batch_hits = cache.prepare_batch(texts)
        assert len(batch_hits) == len(texts)
        for text, hits in zip(texts, batch_hits):
            shard = cache.shards[cache.shard_index(text)]
            expected = shard.sine.index.search(
                shard.sine.embedder.embed(text), shard.sine.max_candidates
            )
            assert [hit.key for hit in hits] == [hit.key for hit in expected]


class TestShardedThreadSafety:
    def test_concurrent_inserts_and_lookups_no_lost_updates(self):
        cache = build_sharded_cache(shards=4)
        remote_lock = threading.Lock()
        remote = build_remote(seed=1)
        n_threads, per_thread = 8, 25
        errors = []

        def hammer(worker: int) -> None:
            try:
                for i in range(per_thread):
                    query = Query(
                        f"worker {worker} fact number {i}", fact_id=f"W{worker}-{i}"
                    )
                    with remote_lock:
                        fetch = remote.fetch_at(query, 0.0)
                    cache.insert(query, fetch, 0.0)
                    cache.lookup(query, 0.0)
                    cache.lookup_batch(
                        [query, Query(f"worker {worker} probe {i}")], 0.0
                    )
            except BaseException as exc:  # pragma: no cover - failure path
                errors.append(exc)

        threads = [
            threading.Thread(target=hammer, args=(w,)) for w in range(n_threads)
        ]
        for thread in threads:
            thread.start()
        for thread in threads:
            thread.join(timeout=60)
            assert not thread.is_alive(), "deadlock: worker never finished"
        assert not errors, errors
        assert len(cache) == n_threads * per_thread
        assert cache.stats.inserts == n_threads * per_thread
        assert sum(s.inserts for s in cache.stats_per_shard()) == cache.stats.inserts


class TestStatsParityAfterChurn:
    """Aggregate sharded stats stay exact through TTL purges and evictions."""

    def test_single_shard_parity_with_unsharded_cache(self):
        # Small capacity forces LCFU evictions; a short TTL plus periodic
        # remove_expired sweeps forces purges. Both engines see identical
        # traffic, so every stats counter must come out identical.
        config = AsteriaConfig(capacity_items=12, default_ttl=40.0)
        plain = build_asteria_engine(build_remote(seed=7), config, seed=3)
        sharded_cache = build_sharded_cache(config, seed=3, shards=1)
        sharded = AsteriaEngine(
            sharded_cache, build_remote(seed=7), config, name="sharded"
        )
        for i, query in enumerate(trace(240, population=40)):
            now = 0.5 * i
            plain.handle(query, now)
            sharded.handle(query, now)
            if i % 40 == 39:
                assert plain.cache.remove_expired(now) == (
                    sharded_cache.remove_expired(now)
                )
        assert plain.metrics.summary() == sharded.metrics.summary()
        assert dataclasses.asdict(plain.cache.stats) == dataclasses.asdict(
            sharded_cache.stats
        )
        assert plain.cache.stats.evictions > 0
        assert plain.cache.stats.expirations > 0
        assert len(plain.cache) == len(sharded_cache)

    def test_aggregate_stats_exact_sums_after_churn(self):
        config = AsteriaConfig(capacity_items=16, default_ttl=40.0)
        cache = build_sharded_cache(config, seed=3, shards=4)
        engine = AsteriaEngine(cache, build_remote(seed=7), config)
        for i, query in enumerate(trace(240, population=40)):
            now = 0.5 * i
            engine.handle(query, now)
            if i % 40 == 39:
                cache.remove_expired(now)
        aggregate = cache.stats
        per_shard = cache.stats_per_shard()
        for field in dataclasses.fields(type(aggregate)):
            assert getattr(aggregate, field.name) == sum(
                getattr(stats, field.name) for stats in per_shard
            ), field.name
        assert aggregate.evictions > 0
        assert aggregate.expirations > 0
        assert len(cache) == sum(len(shard) for shard in cache.shards)
