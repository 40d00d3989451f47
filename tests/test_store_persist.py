"""Tests for `repro.store.persist` (snapshot+journal durability)."""

import pytest

from repro.core import Query
from repro.core.config import AsteriaConfig
from repro.factory import (
    build_asteria_engine,
    build_concurrent_engine,
    build_proc_engine,
    build_remote,
    build_semantic_cache,
)
from repro.store.persist import shard_directory

SEED = 5
CONFIG = AsteriaConfig(capacity_items=16)


def trace(n=120, population=24, offset=0):
    return [
        Query(f"persisted fact number {(i + offset) % population} of the land",
              fact_id=f"F{(i + offset) % population}")
        for i in range(n)
    ]


def run_engine(engine, queries, start=0):
    return [
        engine.handle(query, now=(start + i) * 0.01)
        for i, query in enumerate(queries)
    ]


class TestPersistentStore:
    def test_cold_start_report(self, tmp_path):
        cache = build_semantic_cache(CONFIG, seed=SEED, persist_dir=tmp_path)
        assert cache.restore_report.cold
        assert cache.restore_report.restored_items == 0
        cache.persistent_store.close()

    def test_warm_restart_restores_membership_and_stats(self, tmp_path):
        engine = build_asteria_engine(
            build_remote(seed=SEED), config=CONFIG, seed=SEED,
            persist_dir=tmp_path,
        )
        run_engine(engine, trace())
        first = engine.cache
        stats_before = first.stats
        members_before = {
            element.truth_key: (element.frequency, element.last_accessed_at)
            for element in first.elements.values()
        }
        first.persistent_store.flush()
        # No close/checkpoint: recovery must come from snapshot + journal.
        warm = build_asteria_engine(
            build_remote(seed=SEED), config=CONFIG, seed=SEED,
            persist_dir=tmp_path,
        )
        report = warm.cache.restore_report
        assert not report.cold
        assert report.journal_applied > 0  # the journal actually replayed
        assert report.restored_items == len(first)
        members_after = {
            element.truth_key: (element.frequency, element.last_accessed_at)
            for element in warm.cache.elements.values()
        }
        assert members_after == members_before
        assert warm.cache.stats.inserts == stats_before.inserts
        assert warm.cache.stats.evictions == stats_before.evictions
        assert warm.cache._next_id == first._next_id

    def test_warm_restart_improves_first_window_hit_rate(self, tmp_path):
        cold_engine = build_asteria_engine(
            build_remote(seed=SEED), config=CONFIG, seed=SEED,
            persist_dir=tmp_path,
        )
        run_engine(cold_engine, trace())
        cold_engine.cache.persistent_store.close(checkpoint=True)
        warm_engine = build_asteria_engine(
            build_remote(seed=SEED), config=CONFIG, seed=SEED,
            persist_dir=tmp_path,
        )
        window = trace(n=40)
        run_engine(warm_engine, window, start=200)
        fresh_engine = build_asteria_engine(
            build_remote(seed=SEED), config=CONFIG, seed=SEED,
        )
        run_engine(fresh_engine, window)
        assert warm_engine.metrics.hits > fresh_engine.metrics.hits

    def test_checkpoint_compacts_journal(self, tmp_path):
        cache = build_semantic_cache(CONFIG, seed=SEED, persist_dir=tmp_path)
        store = cache.persistent_store
        from repro.core.types import FetchResult

        for index in range(6):
            cache.insert(
                Query(f"distinct topic {index} heron", fact_id=f"F{index}"),
                FetchResult(result="a", latency=0.4, service_latency=0.4,
                            cost=0.005, size_tokens=16),
                now=float(index),
            )
        store.flush()
        assert store.writer.seq == 6
        store.checkpoint()
        assert store.writer.seq == 0
        assert store.journal_path.read_text() == ""
        # The snapshot carries everything the journal used to.
        fresh = build_semantic_cache(CONFIG, seed=SEED, persist_dir=tmp_path)
        assert fresh.restore_report.restored_items == 6
        assert fresh.restore_report.journal_records == 0

    def test_double_attach_rejected(self, tmp_path):
        cache = build_semantic_cache(CONFIG, seed=SEED, persist_dir=tmp_path)
        with pytest.raises(RuntimeError):
            cache.persistent_store.attach(cache)

    def test_store_stats_shape(self, tmp_path):
        cache = build_semantic_cache(CONFIG, seed=SEED, persist_dir=tmp_path)
        stats = cache.persistent_store.stats()
        assert stats["directory"] == str(tmp_path)
        assert stats["journal"]["fsync_every"] == 8


class TestShardedPersistence:
    def test_thread_engine_warm_restart(self, tmp_path):
        engine = build_concurrent_engine(
            build_remote(seed=SEED), config=CONFIG, seed=SEED,
            shards=2, workers=2, persist_dir=tmp_path,
        )
        with engine:
            report = engine.run_closed_loop(trace(), time_step=0.01)
        assert report.requests == 120
        per_shard = [len(shard) for shard in engine.cache.shards]
        engine.cache.persistent_store.close(checkpoint=True)
        assert (tmp_path / "shard_00" / "snapshot.json").exists()
        assert (tmp_path / "shard_01" / "snapshot.json").exists()
        warm = build_concurrent_engine(
            build_remote(seed=SEED), config=CONFIG, seed=SEED,
            shards=2, workers=2, persist_dir=tmp_path,
        )
        reports = warm.cache.restore_reports
        assert [r.restored_items for r in reports] == per_shard
        assert not any(r.cold for r in reports)

    def test_shard_count_mismatch_rejected(self, tmp_path):
        engine = build_concurrent_engine(
            build_remote(seed=SEED), config=CONFIG, seed=SEED,
            shards=2, workers=2, persist_dir=tmp_path,
        )
        engine.cache.persistent_store.close(checkpoint=True)
        with pytest.raises(ValueError):
            build_concurrent_engine(
                build_remote(seed=SEED), config=CONFIG, seed=SEED,
                shards=3, workers=2, persist_dir=tmp_path,
            )

    def test_proc_tier_refuses_a_layout_from_another_worker_count(self, tmp_path):
        engine = build_concurrent_engine(
            build_remote(seed=SEED), config=CONFIG, seed=SEED,
            shards=2, workers=2, persist_dir=tmp_path,
        )
        engine.cache.persistent_store.close(checkpoint=True)

        def proc(workers):
            # launch=False: the refusal sits in the spec split, before any
            # worker process exists.
            return build_proc_engine(
                build_remote(seed=SEED), config=CONFIG, seed=SEED,
                workers=workers, persist_dir=tmp_path, launch=False,
            )

        with pytest.raises(ValueError, match="holds 2 shard stores"):
            proc(workers=3)
        assert sorted(p.name for p in tmp_path.iterdir()) == ["shard_00", "shard_01"]
        # The count it was written under is accepted: thread and proc tiers
        # share the layout.
        homes = [spec.stack.persist_dir for spec in proc(workers=2).pool.specs]
        assert homes == [tmp_path / "shard_00", tmp_path / "shard_01"]

    def test_shard_directory_naming(self, tmp_path):
        assert shard_directory(tmp_path, 0).name == "shard_00"
        assert shard_directory(tmp_path, 11).name == "shard_11"
