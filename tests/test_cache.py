"""Tests for the AsteriaCache: hit semantics, admission, eviction, TTL."""

import random
import sys

import pytest

from repro.ann import FlatIndex
from repro.core import AsteriaCache, LCFUPolicy, LFUPolicy, Query, Sine
from repro.core.types import FetchResult
from repro.embedding import HashingEmbedder
from repro.judger import SimulatedJudger


def fetch(result="answer", latency=0.4, cost=0.005, tokens=16):
    return FetchResult(
        result=result, latency=latency, service_latency=latency, cost=cost,
        size_tokens=tokens,
    )


def make_cache(capacity=None, ttl=3600.0, policy=None):
    embedder = HashingEmbedder(seed=7)
    sine = Sine(embedder, FlatIndex(embedder.dim), SimulatedJudger(seed=3))
    return AsteriaCache(
        sine, capacity_items=capacity, default_ttl=ttl, policy=policy
    )


class TestInsertAndLookup:
    def test_insert_then_hit(self):
        cache = make_cache()
        cache.insert(Query("who painted the mona lisa", fact_id="F"), fetch(), 0.0)
        result = cache.lookup(Query("mona lisa painter please", fact_id="F"), 1.0)
        assert result.match is not None

    def test_hit_increments_frequency(self):
        cache = make_cache()
        element = cache.insert(Query("height of everest", fact_id="F"), fetch(), 0.0)
        cache.lookup(Query("what is the height of everest", fact_id="F"), 1.0)
        assert element.frequency == 1
        assert element.last_accessed_at == 1.0

    def test_miss_does_not_touch_frequency(self):
        cache = make_cache()
        element = cache.insert(Query("height of everest", fact_id="F"), fetch(), 0.0)
        cache.lookup(Query("weather in oslo", fact_id="G"), 1.0)
        assert element.frequency == 0

    def test_insert_captures_fetch_metadata(self):
        cache = make_cache()
        element = cache.insert(
            Query("height of everest", fact_id="F", staticity=9),
            fetch(latency=0.7, cost=0.02, tokens=99),
            now=5.0,
        )
        assert element.retrieval_latency == 0.7
        assert element.retrieval_cost == 0.02
        assert element.size_tokens == 99
        assert element.created_at == 5.0
        assert element.truth_key == "F"

    def test_staticity_scored_near_annotation(self):
        cache = make_cache()
        element = cache.insert(
            Query("height of everest", fact_id="F", staticity=9), fetch(), 0.0
        )
        assert 8 <= element.staticity <= 10

    def test_element_ids_unique_and_increasing(self):
        cache = make_cache()
        first = cache.insert(Query("query one here", fact_id="A"), fetch(), 0.0)
        second = cache.insert(Query("query two there", fact_id="B"), fetch(), 0.0)
        assert second.element_id > first.element_id


class TestTTL:
    def test_expired_entry_not_served(self):
        cache = make_cache(ttl=10.0)
        cache.insert(Query("height of everest", fact_id="F"), fetch(), 0.0)
        result = cache.lookup(Query("height of everest", fact_id="F"), 11.0)
        assert result.match is None
        assert len(cache) == 0

    def test_entry_served_before_expiry(self):
        cache = make_cache(ttl=10.0)
        cache.insert(Query("height of everest", fact_id="F"), fetch(), 0.0)
        result = cache.lookup(Query("height of everest", fact_id="F"), 9.0)
        assert result.match is not None

    def test_per_insert_ttl_override(self):
        cache = make_cache(ttl=1000.0)
        element = cache.insert(
            Query("height of everest", fact_id="F"), fetch(), 0.0, ttl=5.0
        )
        assert element.expires_at == 5.0

    def test_none_ttl_means_immortal(self):
        cache = make_cache(ttl=None)
        element = cache.insert(Query("height of everest", fact_id="F"), fetch(), 0.0)
        assert element.expires_at == float("inf")

    def test_remove_expired_counts(self):
        cache = make_cache(ttl=10.0)
        cache.insert(Query("query one here", fact_id="A"), fetch(), 0.0)
        cache.insert(Query("query two there", fact_id="B"), fetch(), 5.0)
        removed = cache.remove_expired(now=12.0)
        assert removed == 1
        assert cache.stats.expirations == 1

    @pytest.mark.parametrize("ttl", [0, 0.0, -1.0])
    def test_insert_rejects_a_ttl_that_is_already_over(self, ttl):
        """It would make an element the over-capacity purge deletes before
        ``insert`` returns it, ``protect`` notwithstanding."""
        cache = make_cache(capacity=1, ttl=10.0)
        cache.insert(Query("first unique topic", fact_id="A"), fetch(), 0.0)
        with pytest.raises(ValueError, match="ttl must be > 0"):
            cache.insert(
                Query("second unique topic", fact_id="B"), fetch(), 1.0, ttl=ttl
            )
        assert len(cache) == 1 and cache.stats.inserts == 1
        second = cache.insert(Query("second unique topic", fact_id="B"), fetch(), 1.0)
        assert second.element_id == 2  # the refused insert took no id


class TestLookupCost:
    """A lookup costs what it scores, not what is resident."""

    @staticmethod
    def _populated(size):
        cache = make_cache(ttl=3600.0)
        rng = random.Random(0)
        for index in range(size):
            # Four nonsense words each: no two keys share a token, so every
            # query below has exactly one candidate whatever the population.
            words = [
                "".join(rng.choice("bcdfghjklmnpqrstvwxz") + rng.choice("aeiou")
                        for _ in range(4))
                for _ in range(4)
            ]
            cache.insert(Query(" ".join(words), fact_id=f"F{index}"), fetch(), 0.0)
        return cache

    @staticmethod
    def _python_calls(function, *args):
        """Python-level calls under ``function`` (the way cortexbench counts
        ``py_calls_per_req``): a count repeats where a timing would not."""
        calls = 0

        def profiler(frame, event, arg):
            nonlocal calls
            if event == "call":
                calls += 1

        sys.setprofile(profiler)
        try:
            result = function(*args)
        finally:
            sys.setprofile(None)
        return calls, result

    def test_python_calls_per_hit_do_not_grow_with_the_population(self):
        counts = []
        for size in (256, 4096):
            cache = self._populated(size)
            first = next(iter(cache.elements.values()))
            query = Query(first.key, fact_id=first.truth_key)
            cache.lookup(query, 1.0)  # warm the embedder's memo
            calls, result = self._python_calls(cache.lookup, query, 2.0)
            assert result.match is first and len(result.candidates) == 1
            counts.append(calls)
        assert counts[0] == counts[1]


class TestEviction:
    def test_capacity_enforced(self):
        cache = make_cache(capacity=3)
        for index in range(6):
            cache.insert(
                Query(f"distinct topic number {index} xylophone", fact_id=f"F{index}"),
                fetch(),
                float(index),
            )
        assert len(cache) <= 3
        assert cache.stats.evictions == 3

    def test_newest_insert_protected(self):
        cache = make_cache(capacity=1)
        cache.insert(Query("first unique topic", fact_id="A"), fetch(), 0.0)
        survivor = cache.insert(Query("second unique topic", fact_id="B"), fetch(), 1.0)
        assert list(cache.elements.values()) == [survivor]

    def test_lcfu_keeps_frequent_expensive(self):
        cache = make_cache(capacity=2, policy=LCFUPolicy())
        hot = cache.insert(
            Query("premium slow expensive data", fact_id="HOT"),
            fetch(latency=1.6, cost=0.02),
            0.0,
        )
        hot.record_hit(1.0)
        hot.record_hit(2.0)
        cold = cache.insert(Query("cheap fast data", fact_id="COLD"), fetch(), 3.0)
        cache.insert(Query("another new topic", fact_id="NEW"), fetch(), 4.0)
        assert hot.element_id in cache
        assert cold.element_id not in cache

    def test_lfu_keeps_most_frequent(self):
        cache = make_cache(capacity=2, policy=LFUPolicy())
        popular = cache.insert(Query("popular topic text", fact_id="P"), fetch(), 0.0)
        popular.record_hit(1.0)
        popular.record_hit(2.0)
        cache.insert(Query("unpopular topic text", fact_id="U"), fetch(), 3.0)
        cache.insert(Query("third topic text", fact_id="T"), fetch(), 4.0)
        assert popular.element_id in cache

    def test_expired_purged_before_scored_eviction(self):
        cache = make_cache(capacity=2, ttl=5.0)
        doomed = cache.insert(Query("soon to expire", fact_id="A"), fetch(), 0.0)
        keeper = cache.insert(Query("fresh entry here", fact_id="B"), fetch(), 6.0)
        keeper.record_hit(7.0)
        cache.insert(Query("third arrival text", fact_id="C"), fetch(), 8.0)
        assert doomed.element_id not in cache
        assert keeper.element_id in cache
        assert cache.stats.evictions == 0  # TTL purge made room for free.

    def test_remove_missing_rejected(self):
        cache = make_cache()
        with pytest.raises(KeyError):
            cache.remove(999)


class TestPrefetchInteraction:
    def test_prefetched_flag_recorded(self):
        cache = make_cache()
        element = cache.insert(
            Query("speculative topic", fact_id="S"), fetch(), 0.0, prefetched=True
        )
        assert element.prefetched
        assert cache.stats.prefetch_inserts == 1

    def test_prefetched_entry_confirms_on_first_hit(self):
        cache = make_cache()
        cache.insert(
            Query("height of everest", fact_id="F"), fetch(), 0.0, prefetched=True
        )
        result = cache.lookup(Query("everest height please", fact_id="F"), 1.0)
        assert result.match is not None
        assert "prefetch_confirmed_at" in result.match.metadata

    def test_contains_semantic(self):
        cache = make_cache()
        cache.insert(Query("height of everest", fact_id="F"), fetch(), 0.0)
        assert cache.contains_semantic(Query("everest height", fact_id="F"))
        assert not cache.contains_semantic(Query("weather in oslo", fact_id="G"))


class TestCacheTruthiness:
    def test_empty_caches_are_truthy(self):
        from repro.core import AsteriaConfig, ExactCache
        from repro.factory import build_semantic_cache

        cache = build_semantic_cache(AsteriaConfig())
        assert len(cache) == 0
        assert bool(cache)  # `shared or fresh()` must not rebuild
        assert bool(ExactCache())
