"""Tests for shard routing, the proc tier's split of one cache per worker."""

import pytest

from repro.core import AsteriaConfig
from repro.core.cache import canonical_text, content_key
from repro.core.sharding import shard_index_for
from repro.factory import StackSpec, build_asteria_engine, build_proc_engine, build_remote
from repro.workloads import Paraphraser, SkewedWorkload, build_dataset


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
        for text in (f"fact number {i}" for i in range(50)):
            assert shard_index_for(text, 4) == shard_index_for(text.upper(), 4)

    def test_all_shards_used(self):
        used = {shard_index_for(f"fact number {i}", 4) for i in range(200)}
        assert used == {0, 1, 2, 3}

    def test_needs_at_least_one_shard(self):
        with pytest.raises(ValueError, match="workers must be >= 1"):
            build_proc_engine(build_remote(), workers=0, launch=False)


class TestShardedHitRateParity:
    """Content-key routing sends each paraphrase to the shard holding its
    fact, so N shards hit like one cache at equal total capacity (routing
    on the text fell 10 / 19 points short at 2 / 4 shards here). Each shard
    is built and routed to as a proc worker is: ``spec.shard(i, n)`` and
    :func:`shard_index_for`."""

    @staticmethod
    def hit_rate(engines, stream, warm=500):
        hits = 0
        for i, query in enumerate(stream):
            engine = engines[shard_index_for(query.text, len(engines))]
            response = engine.handle(query, 0.01 * i)
            hits += i >= warm and response.lookup.status == "hit"
        return hits / (len(stream) - warm)

    def test_sharded_hit_rate_matches_unsharded(self):
        dataset = build_dataset("zilliz_gpt", seed=0, n_facts=1_000)
        stream = SkewedWorkload(dataset, seed=0).queries(3_000)
        spec = StackSpec(AsteriaConfig(capacity_items=150), seed=0)

        def split(n):
            remote = build_remote(dataset.universe, seed=0)  # the router's one
            return [build_asteria_engine(remote, spec.shard(i, n)) for i in range(n)]

        unsharded = self.hit_rate(split(1), stream)
        for shards in (2, 4):
            assert self.hit_rate(split(shards), stream) == pytest.approx(
                unsharded, abs=0.01
            ), shards
