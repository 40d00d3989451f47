"""Tests for the engines in analytic mode."""

import pytest

from repro.ann import FlatIndex
from repro.core import (
    AsteriaCache,
    AsteriaConfig,
    AsteriaEngine,
    Query,
    Sine,
)
from repro.core.prefetch import MarkovPrefetcher
from repro.core.types import FetchResult
from repro.embedding import HashingEmbedder
from repro.factory import build_exact_engine, build_vanilla_engine
from repro.judger import SimulatedJudger
from repro.network import RemoteDataService, TokenBucket
from repro.network.remote import RetryPolicy

MONA = "who painted the mona lisa"

#: Agent_exact's cache, driven through its preset: ``(case, preset keywords,
#: steps)``, a step being ``(now, text, outcome)``. A hit costs the 2 ms
#: probe and nothing else. ``test_engine_des`` runs the same table.
EXACT_CASES = [
    ("repeat hits", {}, [(0.0, MONA, "miss"), (1.0, MONA, "hit")]),
    (
        "case and whitespace ignored",
        {},
        [(0.0, "Who Painted   the Mona Lisa", "miss"), (1.0, MONA, "hit")],
    ),
    ("paraphrase misses", {}, [(0.0, MONA, "miss"), (1.0, "mona lisa painter", "miss")]),
    (
        "ttl expiry",
        {"default_ttl": 10.0},
        [(0.0, "q", "miss"), (5.0, "q", "hit"), (11.0, "q", "miss")],
    ),
    (
        # a, b, a touched, c evicts b (least recent), a stays.
        "lru capacity eviction",
        {"capacity_items": 2},
        [
            (0.0, "a", "miss"),
            (1.0, "b", "miss"),
            (2.0, "a", "hit"),
            (3.0, "c", "miss"),
            (4.0, "a", "hit"),
            (5.0, "b", "miss"),
        ],
    ),
]


def throttled_remote() -> RemoteDataService:
    """A remote whose only permit is spent and whose client gives up at once."""
    bucket = TokenBucket(rate=1.0, burst=1)
    bucket.try_acquire(0.0)
    return RemoteDataService(
        latency=0.4, rate_limiter=bucket, retry_policy=RetryPolicy(max_retries=0)
    )


def make_asteria(config=None, **remote_kwargs):
    embedder = HashingEmbedder(seed=7)
    sine = Sine(embedder, FlatIndex(embedder.dim), SimulatedJudger(seed=3))
    cache = AsteriaCache(sine, capacity_items=64)
    remote = RemoteDataService(latency=0.4, **remote_kwargs)
    return AsteriaEngine(cache, remote, config or AsteriaConfig())


class TestVanillaEngine:
    def test_every_request_goes_remote(self):
        engine = build_vanilla_engine(RemoteDataService(latency=0.4))
        for index in range(5):
            response = engine.handle(Query(f"q{index}"), now=float(index))
            assert response.fetch is not None
            assert response.lookup.status == "bypass"
        assert engine.remote.calls == 5
        assert engine.metrics.hit_rate == 0.0
        assert len(engine.cache) == 0

    def test_latency_equals_fetch_latency(self):
        engine = build_vanilla_engine(RemoteDataService(latency=0.4))
        response = engine.handle(Query("q"))
        assert response.latency == pytest.approx(response.fetch.latency)


class TestExactEngine:
    def test_identical_repeat_hits(self):
        engine = build_exact_engine(RemoteDataService(latency=0.4))
        engine.handle(Query("same text"), 0.0)
        response = engine.handle(Query("same text"), 1.0)
        assert response.served_from_cache
        assert response.latency == pytest.approx(0.002)

    def test_paraphrase_misses(self):
        engine = build_exact_engine(RemoteDataService(latency=0.4))
        engine.handle(Query("who painted the mona lisa"), 0.0)
        response = engine.handle(Query("mona lisa painter"), 1.0)
        assert not response.served_from_cache

    @pytest.mark.parametrize(
        "preset, steps", [case[1:] for case in EXACT_CASES], ids=[c[0] for c in EXACT_CASES]
    )
    def test_exact_stage(self, preset, steps):
        engine = build_exact_engine(RemoteDataService(latency=0.4), **preset)
        for now, text, outcome in steps:
            response = engine.handle(Query(text), now)
            assert response.lookup.status == outcome, (now, text)
            if outcome == "hit":
                assert response.latency == 0.002
                assert response.lookup.judged == 0

    def test_removing_the_older_of_two_admits_keeps_the_newer(self):
        engine = build_exact_engine(RemoteDataService(latency=0.4))
        fetch = FetchResult(result="r", latency=0.4, service_latency=0.4, cost=0.0)
        older = engine.cache.insert(Query(MONA), fetch, 0.0)
        newer = engine.cache.insert(Query(MONA.upper()), fetch, 1.0)
        assert engine.cache.usage() == 2  # a duplicate admit is kept
        engine.cache.remove(older.element_id)
        response = engine.handle(Query(MONA), 2.0)
        assert response.lookup.element_id == newer.element_id

    def test_reinsert_same_key_refreshes(self):
        engine = build_exact_engine(RemoteDataService(latency=0.4))
        for now, result in ((0.0, "old"), (5.0, "new")):
            fetch = FetchResult(result=result, latency=0.4, service_latency=0.4, cost=0.0)
            engine.cache.insert(Query("q"), fetch, now)
        response = engine.handle(Query("q"), 6.0)
        assert response.served_from_cache
        assert response.result.startswith("new")

    def test_capacity_validation(self):
        with pytest.raises(ValueError):
            build_exact_engine(RemoteDataService(latency=0.4), capacity_items=0)

    def test_usage_counts_entries(self):
        engine = build_exact_engine(RemoteDataService(latency=0.4))
        engine.handle(Query("a"), 0.0)
        engine.handle(Query("b"), 0.0)
        assert engine.cache.usage() == 2


@pytest.mark.parametrize("preset", [build_vanilla_engine, build_exact_engine])
def test_a_baseline_degrades_when_the_remote_gives_up(preset):
    """Past its rate-limit budget a baseline answers ``failed``, as Asteria
    does: it runs the same flow."""
    engine = preset(throttled_remote())
    response = engine.handle(Query("q"), 0.0)
    assert response.degraded == "failed"
    assert engine.metrics.failed_requests == engine.metrics.fetch_failures == 1


class TestAsteriaEngineAnalytic:
    def test_miss_then_semantic_hit(self):
        engine = make_asteria()
        first = engine.handle(Query("who painted the mona lisa", fact_id="F"), 0.0)
        assert not first.served_from_cache
        second = engine.handle(
            Query("tell me who painted mona lisa", fact_id="F"), 2.0
        )
        assert second.served_from_cache
        assert second.result == first.result

    def test_hit_latency_matches_config(self):
        engine = make_asteria()
        engine.handle(Query("who painted the mona lisa", fact_id="F"), 0.0)
        hit = engine.handle(Query("mona lisa painter ok", fact_id="F"), 2.0)
        assert hit.latency == pytest.approx(
            engine.config.cache_check_latency(hit.lookup.judged)
        )

    def test_miss_latency_includes_cache_check_and_fetch(self):
        engine = make_asteria()
        response = engine.handle(Query("fresh unique topic", fact_id="F"), 0.0)
        assert response.latency == pytest.approx(
            response.lookup.latency + response.fetch.latency
        )

    def test_confusable_miss_preserves_correctness(self):
        engine = make_asteria()
        engine.handle(Query("who won the world cup 2018", fact_id="A"), 0.0)
        response = engine.handle(Query("who won the world cup 2022", fact_id="B"), 1.0)
        assert not response.served_from_cache
        assert engine.metrics.served_incorrect == 0

    def test_ann_only_serves_confusable_and_counts_incorrect(self):
        engine = make_asteria(config=AsteriaConfig(match="ann_only"))
        engine.handle(Query("who won the world cup 2018", fact_id="A"), 0.0)
        response = engine.handle(Query("who won the world cup 2022", fact_id="B"), 1.0)
        assert response.served_from_cache
        assert response.lookup.truth_match is False
        assert engine.metrics.served_incorrect == 1

    def test_admit_on_miss_false_never_populates(self):
        engine = make_asteria(config=AsteriaConfig(admit_on_miss=False))
        engine.handle(Query("some topic", fact_id="F"), 0.0)
        assert len(engine.cache) == 0

    def test_eval_log_populated_on_hits(self):
        engine = make_asteria()
        engine.handle(Query("height of everest", fact_id="F"), 0.0)
        engine.handle(Query("everest height please", fact_id="F"), 1.0)
        assert len(engine._eval_log) == 1

    def test_config_thresholds_pushed_into_sine(self):
        engine = make_asteria(config=AsteriaConfig(tau_sim=0.8, tau_lsm=0.95))
        assert engine.cache.sine.tau_sim == 0.8
        assert engine.cache.sine.tau_lsm == 0.95


class TestAsteriaPrefetchAnalytic:
    def test_prefetch_inserts_predicted_successor(self):
        config = AsteriaConfig(prefetch_enabled=True, prefetch_confidence=0.5)
        engine = make_asteria(config=config)
        engine.prefetcher = MarkovPrefetcher(confidence=0.5, max_per_event=2)
        a = Query("alpha unique topic", fact_id="A")
        b = Query("beta unique topic", fact_id="B")
        for _ in range(2):
            engine.handle(a, 0.0)
            engine.handle(b, 1.0)
        # Cache now holds both; evict B to create a prefetch opportunity.
        b_elements = [
            element_id
            for element_id, element in engine.cache.elements.items()
            if element.truth_key == "B"
        ]
        for element_id in b_elements:
            engine.cache.remove(element_id)
        engine.handle(a, 10.0)
        assert engine.metrics.prefetches_issued >= 1
        assert engine.cache.contains_semantic(b)

    def test_prefetch_skips_cached_targets(self):
        config = AsteriaConfig(prefetch_enabled=True, prefetch_confidence=0.5)
        engine = make_asteria(config=config)
        a = Query("alpha unique topic", fact_id="A")
        b = Query("beta unique topic", fact_id="B")
        for _ in range(2):
            engine.handle(a, 0.0)
            engine.handle(b, 1.0)
        engine.handle(a, 10.0)  # b is already cached: no prefetch.
        assert engine.metrics.prefetches_issued == 0


class TestAsteriaRecalibrationAnalytic:
    def test_recalibration_rounds_run_on_schedule(self):
        config = AsteriaConfig(
            recalibration_enabled=True, recalibration_interval=10.0
        )
        engine = make_asteria(config=config)
        engine.handle(Query("topic one here", fact_id="A"), 0.0)
        engine.handle(Query("topic one here ok", fact_id="A"), 11.0)
        engine.handle(Query("topic one please", fact_id="A"), 22.0)
        assert engine.metrics.recalibrations >= 1

    def test_ground_truth_fetches_charged(self):
        config = AsteriaConfig(
            recalibration_enabled=True, recalibration_interval=5.0,
        )
        engine = make_asteria(config=config)
        # Build hits so the eval log is non-empty, then cross the interval.
        engine.handle(Query("topic one here", fact_id="A"), 0.0)
        for step in range(1, 8):
            engine.handle(Query("topic one here ok", fact_id="A"), float(step))
        engine.handle(Query("topic one please", fact_id="A"), 20.0)
        assert engine.remote.cost_meter.by_tool().get("ground-truth", 0) > 0
