"""Tests for the sharded cache layer."""

import dataclasses

import pytest

from repro.core import AsteriaConfig, AsteriaEngine, Query, ShardedAsteriaCache
from repro.core.cache import canonical_text, content_key
from repro.core.sharding import shard_index_for
from repro.factory import (
    build_asteria_engine,
    build_remote,
    build_sharded_cache,
)
from repro.workloads import Paraphraser, SkewedWorkload, build_dataset


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
        # crc32 of the content key is process-independent; pin the key and
        # one shard so an accidental routing change (which would scatter
        # persisted deployments) fails loudly.
        text = "What is the height of Mount Everest?"
        assert content_key(text) == "everest height mount"
        assert shard_index_for(text, 8) == 3

    @pytest.mark.parametrize("n_shards", [2, 3, 4, 8])
    def test_every_paraphrase_of_a_fact_co_shards(self, n_shards):
        paraphraser = Paraphraser()
        for fact in build_dataset("zilliz_gpt", seed=0, n_facts=200).universe:
            shards = {
                shard_index_for(text, n_shards)
                for text in paraphraser.all_phrases(fact.core)
            }
            assert len(shards) == 1, fact.core

    def test_case_spacing_and_stopword_only_texts(self):
        for n_shards in (2, 3, 4, 8):
            assert shard_index_for("  Mount EVEREST\theight ", n_shards) == (
                shard_index_for("mount everest height", n_shards)
            )
        # No content stems: the key falls back to the canonical text (the
        # fingerprints that pass ``empty`` keep one shared key instead).
        assert content_key("What  is IT") == canonical_text("What  is IT")
        assert content_key("what is it", empty="") == ""
        assert shard_index_for("What  is IT ", 8) == shard_index_for("what is it", 8) == 5

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
        assert removed == 20  # admitted at ~0.4 s with a 10 s TTL: all long over
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


class TestShardedHitRateParity:
    """Content-key routing sends each paraphrase to the shard holding its
    fact, so N shards hit like one cache at equal total capacity (routing
    on the text fell 10 / 19 points short at 2 / 4 shards here)."""

    @staticmethod
    def hit_rate(engine, stream, warm=500):
        hits = 0
        for i, query in enumerate(stream):
            response = engine.handle(query, 0.01 * i)
            hits += i >= warm and response.lookup.status == "hit"
        return hits / (len(stream) - warm)

    def test_sharded_hit_rate_matches_unsharded(self):
        dataset = build_dataset("zilliz_gpt", seed=0, n_facts=1_000)
        stream = SkewedWorkload(dataset, seed=0).queries(3_000)
        config = AsteriaConfig(capacity_items=150)
        unsharded = self.hit_rate(
            build_asteria_engine(build_remote(dataset.universe, seed=0), config, seed=0),
            stream,
        )
        for shards in (2, 4):
            cache = build_sharded_cache(config, seed=0, shards=shards)
            engine = AsteriaEngine(cache, build_remote(dataset.universe, seed=0), config)
            assert self.hit_rate(engine, stream) == pytest.approx(unsharded, abs=0.01), shards


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
