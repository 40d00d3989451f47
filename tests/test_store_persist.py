"""Tests for `repro.store.persist` (snapshot+journal durability)."""

import asyncio

import pytest

from repro.core import Query
from repro.core.config import AsteriaConfig
from repro.factory import (
    build_asteria_engine,
    build_async_engine,
    build_proc_engine,
    build_remote,
    build_semantic_cache,
)
from repro.serving.aio import run_open_loop
from repro.core.sharding import ROUTING
from repro.store.persist import ROUTING_FILE, shard_directory

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


def proc(tmp_path, workers=2):
    # launch=False: the layout is split, checked and marked before any
    # worker process exists.
    return build_proc_engine(
        build_remote(seed=SEED), config=CONFIG, seed=SEED,
        workers=workers, persist_dir=tmp_path, launch=False,
    )


def tree(directory):
    return {
        path.relative_to(directory): path.read_bytes() if path.is_file() else None
        for path in directory.rglob("*")
    }


class TestShardedPersistence:
    def test_async_engine_warm_restart(self, tmp_path):
        """The async tier keeps one store in ``DIR`` itself, as sync does."""
        engine = build_async_engine(
            build_remote(seed=SEED), config=CONFIG, seed=SEED, persist_dir=tmp_path,
        )
        report = asyncio.run(run_open_loop(engine, trace(), rate=10_000.0, time_step=0.01))
        assert report.requests == 120
        resident = len(engine.cache)
        engine.cache.persistent_store.close(checkpoint=True)
        assert (tmp_path / "snapshot.json").exists()
        assert not list(tmp_path.glob("shard_*"))
        warm = build_async_engine(
            build_remote(seed=SEED), config=CONFIG, seed=SEED, persist_dir=tmp_path,
        )
        assert not warm.cache.restore_report.cold
        assert warm.cache.restore_report.restored_items == resident > 0
        warm.cache.persistent_store.close()

    def test_shard_count_mismatch_rejected(self, tmp_path):
        proc(tmp_path, workers=2)
        shard_directory(tmp_path, 1, 2)  # the count it was written under
        with pytest.raises(ValueError, match="holds 2 shard stores but the cache has 3"):
            shard_directory(tmp_path, 0, 3)

    def test_proc_tier_refuses_a_layout_from_another_worker_count(self, tmp_path):
        proc(tmp_path, workers=2)
        with pytest.raises(ValueError, match="holds 2 shard stores"):
            proc(tmp_path, workers=3)
        assert sorted(p.name for p in tmp_path.iterdir()) == ["shard_00", "shard_01"]
        # The count it was written under is accepted.
        homes = [spec.stack.persist_dir for spec in proc(tmp_path).pool.specs]
        assert homes == [tmp_path / "shard_00", tmp_path / "shard_01"]

    def test_a_layout_from_another_routing_is_refused(self, tmp_path):
        proc(tmp_path)
        markers = [tmp_path / f"shard_{i:02d}" / ROUTING_FILE for i in range(2)]
        assert [marker.read_text() for marker in markers] == [ROUTING + "\n"] * 2
        # A store without the marker was placed by the text-hash routing.
        markers[1].unlink()
        with pytest.raises(ValueError, match="text-crc32 routing but the cache routes by"):
            proc(tmp_path)
        markers[1].write_text("some-other-routing\n")
        with pytest.raises(ValueError, match="some-other-routing routing"):
            proc(tmp_path)

    def test_a_legacy_layout_is_refused_on_both_tiers(self, tmp_path):
        """A layout from before content-key routing: the proc tier refuses
        its routing, a one-cache tier refuses any shard layout."""
        for shard in ("shard_00", "shard_01"):
            (tmp_path / shard).mkdir()
        with pytest.raises(ValueError, match=f"routes by {ROUTING}"):
            proc(tmp_path)
        with pytest.raises(ValueError, match="holds 2 shard stores"):
            build_asteria_engine(build_remote(seed=SEED), CONFIG, persist_dir=tmp_path)
        assert not list(tmp_path.glob(f"shard_*/{ROUTING_FILE}"))

    def test_a_one_cache_stack_refuses_a_sharded_layout(self, tmp_path):
        """Restoring one cache from ``DIR`` would start it cold beside the
        proc tier's stores and orphan them; both one-cache tiers refuse."""
        proc(tmp_path)
        before = tree(tmp_path)
        for build in (build_asteria_engine, build_async_engine):
            with pytest.raises(
                ValueError, match="holds 2 shard stores.*--engine proc --workers 2"
            ):
                build(build_remote(seed=SEED), CONFIG, seed=SEED, persist_dir=tmp_path)
        assert tree(tmp_path) == before

    def test_shard_directory_naming(self, tmp_path):
        assert shard_directory(tmp_path, 0, 1).name == "shard_00"
        assert shard_directory(tmp_path, 11, 12).name == "shard_11"
