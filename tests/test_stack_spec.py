"""`StackSpec`: the stack declared once, and every builder a pass-through.

A spec is what crosses the spawn boundary to a proc worker, so it has to
pickle and rebuild the very stack the kwargs path builds; ``**stack``
keywords have to fail loudly when misspelt (nothing in between reads them);
and ``shard(i, n)`` is the only place a stack is split.
"""

import pickle
from dataclasses import FrozenInstanceError

import pytest

from repro.core import Query, Sine
from repro.core.config import AsteriaConfig
from repro.core.eviction import LRUPolicy
from repro.factory import (
    StackSpec,
    build_asteria_engine,
    build_async_engine,
    build_proc_engine,
    build_remote,
    build_semantic_cache,
)
from repro.serving.proc.worker import WorkerSpec

CONFIG = AsteriaConfig(capacity_items=10, tau_sim=0.75)


def _decisions(cache, n=150, population=30):
    """Hit/miss per query of a pinned paraphrase-free trace, admitting misses."""
    from repro.core.types import FetchResult

    fetch = FetchResult(
        result="a", latency=0.4, service_latency=0.4, cost=0.005, size_tokens=8
    )
    out = []
    for i in range(n):
        rank = (i * i + 3 * i) % population
        query = Query(f"spec fact number {rank} of the set", fact_id=f"F{rank}")
        match = cache.lookup(query, now=i * 0.01).match
        out.append(None if match is None else match.element_id)
        if match is None:
            cache.insert(query, fetch, i * 0.01)
    return out, cache.stats.inserts, cache.stats.evictions


class TestSpecIsTheStack:
    def test_pickled_spec_rebuilds_the_kwargs_cache(self):
        stack = dict(seed=11, policy="lru")
        spec = pickle.loads(pickle.dumps(StackSpec(CONFIG, **stack)))
        assert spec == StackSpec(CONFIG, **stack)
        from_spec = _decisions(build_semantic_cache(spec))
        from_kwargs = _decisions(build_semantic_cache(CONFIG, **stack))
        assert from_spec == from_kwargs
        assert from_spec[2] > 0  # capacity 10 over 30 facts: the policy acted

    def test_spec_is_frozen(self):
        with pytest.raises(FrozenInstanceError):
            StackSpec().seed = 3

    def test_keywords_override_a_ready_spec(self):
        cache = build_semantic_cache(StackSpec(CONFIG, seed=1), policy=LRUPolicy())
        assert cache.policy.name == "lru"
        assert cache.capacity_items == 10

    def test_worker_builds_from_the_spec_it_was_handed(self):
        from repro.serving.proc.worker import _ShardServer

        spec = StackSpec(CONFIG, seed=11, policy="lru").shard(1, 2)
        server = _ShardServer(WorkerSpec(1, 2, spec))
        assert server.cache.capacity_items == 5
        assert server.cache.policy.name == "lru"
        assert _decisions(server.cache) == _decisions(build_semantic_cache(spec))


class TestUnknownKeywordIsNamed:
    @pytest.mark.parametrize(
        "build",
        [
            lambda **kw: build_semantic_cache(**kw),
            lambda **kw: build_asteria_engine(build_remote(), **kw),
            lambda **kw: build_async_engine(build_remote(), **kw),
            lambda **kw: build_proc_engine(build_remote(), launch=False, **kw),
        ],
        ids=["cache", "sync", "async", "proc"],
    )
    def test_every_builder_rejects_it(self, build):
        with pytest.raises(TypeError, match="persist_dri"):
            build(seed=1, persist_dri="/tmp/nowhere")

    def test_removed_knobs_are_unknown_now(self):
        """A keyword a builder no longer takes falls through to ``**stack``,
        and ``StackSpec.of`` names it."""
        proc = lambda **kw: build_proc_engine(build_remote(), launch=False, **kw)
        aio = lambda **kw: build_async_engine(build_remote(), **kw)
        removed = [
            *[
                (proc, gone)
                for gone in (
                    "backend",
                    "backend_dir",
                    "codec",
                    "fault_domains",
                    "follower_timeout",
                    "supervisor_ping_interval",
                    "supervisor_ping_timeout",
                    "supervisor_backoff_base",
                    "supervisor_backoff_max",
                    "supervisor_max_restarts",
                    "shard_open_seconds",
                )
            ],
            (aio, "hedge_percentile"),
            (aio, "follower_timeout"),
            (aio, "shards"),
            (build_semantic_cache, "arena"),
            (AsteriaConfig, "ann_only"),
            (lambda **kw: Sine(None, None, None, **kw), "judge_all"),
        ]
        for build, gone in removed:
            with pytest.raises(TypeError, match=gone):
                build(**{gone: None})


class TestMisnamedValueIsRefusedWhereTheSpecIsMade:
    """On the proc tier the spec is first *read* inside a worker, so a bad
    name has to be refused where keywords become a spec: in the caller."""

    @pytest.mark.parametrize(
        "field, value",
        [
            ("index_kind", "hnsw"),
            ("index_kind", "faiss"),
            ("policy", "nope"),
        ],
    )
    @pytest.mark.parametrize(
        "build",
        [
            lambda **kw: StackSpec(**kw),
            lambda **kw: build_asteria_engine(build_remote(), **kw),
            lambda **kw: build_proc_engine(build_remote(), launch=False, **kw),
        ],
        ids=["spec", "sync", "proc"],
    )
    def test_every_tier_names_field_and_value(self, build, field, value):
        with pytest.raises(ValueError, match=f"{field}.*{value}"):
            build(**{field: value})

    def test_every_accepted_value_still_builds(self):
        for stack in (dict(policy="lru"), dict(policy=LRUPolicy())):
            assert build_semantic_cache(index_kind="flat", **stack) is not None


class TestShard:
    @pytest.mark.parametrize("capacity", [1, 7, 8, 10, 500])
    @pytest.mark.parametrize("count", [1, 2, 3, 4, 16])
    def test_capacity_is_ceil_split(self, capacity, count):
        spec = StackSpec(AsteriaConfig(capacity_items=capacity), seed=4)
        for index in range(count):
            shard = spec.shard(index, count)
            assert shard.config.capacity_items == -(-capacity // count)
            assert shard.seed == 4  # same substrates on every shard
        total = count * spec.shard(0, count).config.capacity_items
        assert capacity <= total <= capacity + count - 1

    def test_unbounded_and_single_shard_are_untouched(self):
        assert StackSpec().shard(2, 4).config.capacity_items is None
        spec = StackSpec(CONFIG, seed=2)
        assert spec.shard(0, 1) == spec

    def test_durable_home_is_per_shard(self, tmp_path):
        spec = StackSpec(persist_dir=tmp_path, fsync_every=2)
        assert spec.shard(0, 12).persist_dir == tmp_path / "shard_00"
        assert spec.shard(11, 12).persist_dir == tmp_path / "shard_11"
        assert spec.shard(11, 12).fsync_every == 2
        assert StackSpec().shard(1, 2).persist_dir is None
        assert not any(tmp_path.iterdir())  # computing a layout writes nothing

    def test_the_proc_tier_splits_through_it(self):
        spec = StackSpec(CONFIG, seed=3)
        assert [spec.shard(i, 4).config.capacity_items for i in range(4)] == [3] * 4
        engine = build_proc_engine(build_remote(), CONFIG, workers=4, seed=3, launch=False)
        assert [worker.stack for worker in engine.pool.specs] == [
            spec.shard(index, 4) for index in range(4)
        ]
        assert engine.pool.capacity_items == 12


class TestWorkerSpecChecks:
    def test_policy_must_be_a_name(self):
        with pytest.raises(TypeError, match="policy"):
            WorkerSpec(0, 1, StackSpec(policy=LRUPolicy()))

    def test_shard_id_must_be_in_range(self):
        with pytest.raises(ValueError, match="out of range"):
            WorkerSpec(2, 2, StackSpec())
