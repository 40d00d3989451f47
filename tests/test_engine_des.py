"""Tests for engines in discrete-event (process) mode."""

import pytest

from repro.ann import FlatIndex
from repro.core import (
    AsteriaCache,
    AsteriaConfig,
    AsteriaEngine,
    Query,
    Sine,
)
from repro.embedding import HashingEmbedder
from repro.factory import build_exact_engine, build_vanilla_engine
from repro.judger import SimulatedJudger
from repro.network import RemoteDataService, TokenBucket
from repro.sim import Simulator
from tests.test_engine import EXACT_CASES, MONA, throttled_remote


def make_asteria(config=None, rate_limiter=None):
    embedder = HashingEmbedder(seed=7)
    sine = Sine(embedder, FlatIndex(embedder.dim), SimulatedJudger(seed=3))
    cache = AsteriaCache(sine, capacity_items=64)
    remote = RemoteDataService(latency=0.4, rate_limiter=rate_limiter)
    return AsteriaEngine(cache, remote, config or AsteriaConfig())


def drive(sim, engine, query):
    """Run one engine.process() to completion; returns the response."""
    process = sim.process(engine.process(sim, query))
    sim.run()
    return process.value


class TestProcessMode:
    def test_vanilla_process_measures_sim_time(self):
        sim = Simulator()
        engine = build_vanilla_engine(RemoteDataService(latency=0.4))
        response = drive(sim, engine, Query("q"))
        assert response.latency == pytest.approx(0.4)
        assert sim.now == pytest.approx(0.4)

    def test_exact_process_hit_path(self):
        sim = Simulator()
        engine = build_exact_engine(RemoteDataService(latency=0.4))
        drive(sim, engine, Query("same"))
        response = drive(sim, engine, Query("same"))
        assert response.served_from_cache
        assert response.latency == pytest.approx(0.002)

    @pytest.mark.parametrize(
        "preset, steps", [case[1:] for case in EXACT_CASES], ids=[c[0] for c in EXACT_CASES]
    )
    def test_exact_stage(self, preset, steps):
        sim = Simulator()
        engine = build_exact_engine(RemoteDataService(latency=0.4), **preset)
        for now, text, outcome in steps:
            sim.run(until=now)
            response = drive(sim, engine, Query(text))
            assert response.lookup.status == outcome, (now, text)
            if outcome == "hit":
                assert response.latency == pytest.approx(0.002)

    def test_concurrent_duplicate_admits_are_both_kept(self):
        """Two callers miss on one text at once and both admit; removing the
        older element leaves the newer one matchable."""
        sim = Simulator()
        engine = build_exact_engine(RemoteDataService(latency=0.4))
        for _ in range(2):
            sim.process(engine.process(sim, Query(MONA)))
        sim.run()
        older, newer = engine.cache.elements.values()
        engine.cache.remove(older.element_id)
        response = drive(sim, engine, Query(MONA))
        assert response.lookup.element_id == newer.element_id

    @pytest.mark.parametrize("preset", [build_vanilla_engine, build_exact_engine])
    def test_a_baseline_degrades_when_the_remote_gives_up(self, preset):
        engine = preset(throttled_remote())
        response = drive(Simulator(), engine, Query("q"))
        assert response.degraded == "failed"
        assert engine.metrics.failed_requests == engine.metrics.fetch_failures == 1

    def test_asteria_process_hit_latency(self):
        sim = Simulator()
        engine = make_asteria()
        drive(sim, engine, Query("who painted the mona lisa", fact_id="F"))
        response = drive(sim, engine, Query("mona lisa painter ok", fact_id="F"))
        assert response.served_from_cache
        assert response.latency == pytest.approx(0.05, abs=1e-6)

    def test_asteria_process_miss_includes_remote(self):
        sim = Simulator()
        engine = make_asteria()
        response = drive(sim, engine, Query("fresh topic", fact_id="F"))
        assert not response.served_from_cache
        assert response.latency > 0.4

    def test_analytic_and_process_agree_on_hit_rate(self):
        queries = [
            Query("who painted the mona lisa", fact_id="F"),
            Query("mona lisa painter ok", fact_id="F"),
            Query("tell me who painted mona lisa", fact_id="F"),
            Query("height of everest", fact_id="G"),
            Query("everest height please", fact_id="G"),
        ]
        analytic = make_asteria()
        now = 0.0
        for query in queries:
            response = analytic.handle(query, now)
            now += response.latency + 0.1
        des = make_asteria()
        sim = Simulator()
        for query in queries:
            drive(sim, des, query)
        assert analytic.metrics.hit_rate == des.metrics.hit_rate

    def test_concurrent_requests_queue_on_rate_limit(self):
        sim = Simulator()
        engine = build_vanilla_engine(
            RemoteDataService(
                latency=0.4, rate_limiter=TokenBucket(rate=1.0, burst=1)
            )
        )
        responses = []

        def client(index):
            response = yield from engine.process(sim, Query(f"q{index}"))
            responses.append(response)

        for index in range(4):
            sim.process(client(index))
        sim.run()
        # 4 requests through a 1/s bucket: last one waits ~3s.
        assert max(response.latency for response in responses) > 2.0
        assert engine.remote.retries > 0


class TestProcessPrefetch:
    def test_prefetch_is_asynchronous(self):
        config = AsteriaConfig(prefetch_enabled=True, prefetch_confidence=0.5)
        engine = make_asteria(config=config)
        sim = Simulator()
        a = Query("alpha unique topic", fact_id="A")
        b = Query("beta unique topic", fact_id="B")
        for _ in range(2):
            drive(sim, engine, a)
            drive(sim, engine, b)
        for element_id, element in list(engine.cache.elements.items()):
            if element.truth_key == "B":
                engine.cache.remove(element_id)
        start = sim.now
        response = drive(sim, engine, a)
        # The request itself is a fast hit; the prefetch runs in background.
        assert response.served_from_cache
        assert engine.metrics.prefetches_issued >= 1
        assert engine.cache.contains_semantic(b)

    def test_duplicate_inflight_prefetch_suppressed(self):
        config = AsteriaConfig(prefetch_enabled=True, prefetch_confidence=0.5)
        engine = make_asteria(config=config)
        sim = Simulator()
        a = Query("alpha unique topic", fact_id="A")
        b = Query("beta unique topic", fact_id="B")
        for _ in range(2):
            drive(sim, engine, a)
            drive(sim, engine, b)
        for element_id, element in list(engine.cache.elements.items()):
            if element.truth_key == "B":
                engine.cache.remove(element_id)

        def double_trigger():
            first = sim.process(engine.process(sim, a))
            second = sim.process(engine.process(sim, a))
            yield first
            yield second

        sim.process(double_trigger())
        sim.run()
        assert engine.metrics.prefetches_issued == 1
