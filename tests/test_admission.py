"""Tests for admission policies and cache bypass."""

import pytest

from repro.core import (
    AlwaysAdmit,
    AsteriaConfig,
    DoorkeeperAdmission,
    Query,
)
from repro.core.types import FetchResult
from repro.factory import build_asteria_engine, build_remote
from repro.sim import Simulator


def fetch(tokens=16):
    return FetchResult(
        result="r", latency=0.4, service_latency=0.4, cost=0.005,
        size_tokens=tokens,
    )


class TestPolicies:
    def test_always_admit(self):
        policy = AlwaysAdmit()
        assert policy.admit(Query("q"), fetch(), 0.0)

    def test_doorkeeper_refuses_first_admits_second(self):
        policy = DoorkeeperAdmission(window=100.0)
        query = Query("height of everest", fact_id="F")
        assert not policy.admit(query, fetch(), 0.0)
        assert policy.admit(query, fetch(), 50.0)
        assert policy.refused == 1 and policy.admitted == 1

    def test_doorkeeper_matches_paraphrases(self):
        policy = DoorkeeperAdmission(window=100.0)
        assert not policy.admit(Query("tell me the height of everest"), fetch(), 0.0)
        # Same content stems, different filler: counts as recurrence.
        assert policy.admit(Query("height of everest please"), fetch(), 10.0)

    def test_doorkeeper_window_expiry(self):
        policy = DoorkeeperAdmission(window=10.0)
        query = Query("height of everest")
        assert not policy.admit(query, fetch(), 0.0)
        assert not policy.admit(query, fetch(), 20.0)  # first record stale

    def test_doorkeeper_third_miss_after_admission_restarts(self):
        policy = DoorkeeperAdmission(window=100.0)
        query = Query("height of everest")
        policy.admit(query, fetch(), 0.0)
        policy.admit(query, fetch(), 1.0)  # admitted, record cleared
        assert not policy.admit(query, fetch(), 2.0)

    def test_doorkeeper_tracking_bound(self):
        policy = DoorkeeperAdmission(window=1e9, max_tracked=2)
        for index in range(5):
            policy.admit(Query(f"unique topic {index} zz"), fetch(), float(index))
        assert len(policy._first_seen) <= 2

    def test_validation(self):
        with pytest.raises(ValueError):
            DoorkeeperAdmission(window=0.0)
        with pytest.raises(ValueError):
            DoorkeeperAdmission(max_tracked=0)


class TestEngineAdmission:
    def test_doorkeeper_delays_caching_by_one_miss(self):
        engine = build_asteria_engine(build_remote(), seed=1)
        engine.admission = DoorkeeperAdmission(window=1000.0)
        first = engine.handle(Query("height of everest", fact_id="F"), 0.0)
        assert not first.served_from_cache
        assert len(engine.cache) == 0  # refused by the doorkeeper
        second = engine.handle(Query("everest height please", fact_id="F"), 1.0)
        assert not second.served_from_cache
        assert len(engine.cache) == 1  # admitted on recurrence
        third = engine.handle(Query("tell me height of everest", fact_id="F"), 2.0)
        assert third.served_from_cache

    def test_doorkeeper_keeps_one_hit_wonders_out(self):
        engine = build_asteria_engine(build_remote(), seed=1)
        engine.admission = DoorkeeperAdmission(window=1000.0)
        for index in range(10):
            engine.handle(Query(f"singleton topic {index} qqq", fact_id=f"T{index}"), 0.0)
        assert len(engine.cache) == 0


class TestToolBypass:
    def test_uncacheable_tool_bypasses(self):
        config = AsteriaConfig(cacheable_tools=("search",))
        engine = build_asteria_engine(build_remote(), config, seed=1)
        response = engine.handle(
            Query("write to my calendar", tool="tool", fact_id="X"), 0.0
        )
        assert response.lookup.status == "bypass"
        assert len(engine.cache) == 0
        assert engine.metrics.bypasses == 1
        # Bypasses never count against the hit rate.
        assert engine.metrics.hit_rate == 0.0

    def test_cacheable_tool_still_cached(self):
        config = AsteriaConfig(cacheable_tools=("search",))
        engine = build_asteria_engine(build_remote(), config, seed=1)
        engine.handle(Query("height of everest", tool="search", fact_id="F"), 0.0)
        response = engine.handle(
            Query("everest height ok", tool="search", fact_id="F"), 1.0
        )
        assert response.served_from_cache

    def test_bypass_in_process_mode(self):
        config = AsteriaConfig(cacheable_tools=("search",))
        engine = build_asteria_engine(build_remote(), config, seed=1)
        sim = Simulator()
        process = sim.process(
            engine.process(sim, Query("side effecting call", tool="file"))
        )
        sim.run()
        assert process.value.lookup.status == "bypass"
        assert len(engine.cache) == 0

    def test_default_caches_all_tools(self):
        engine = build_asteria_engine(build_remote(), seed=1)
        engine.handle(Query("read config file main", tool="file", fact_id="F"), 0.0)
        assert len(engine.cache) == 1
