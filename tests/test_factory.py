"""Tests for the one-call constructors."""

import pytest

from repro.core import AsteriaConfig, Query
from repro.factory import (
    build_asteria_engine,
    build_exact_engine,
    build_remote,
    build_vanilla_engine,
)
from repro.judger import SpinningJudger
from repro.workloads import build_dataset


class TestBuildRemote:
    def test_default_latency_is_search_api_range(self):
        remote = build_remote()
        result = remote.fetch_at(Query("q"))
        assert 0.3 <= result.service_latency <= 0.5

    def test_rate_limit_installed(self):
        remote = build_remote(rate_limit_per_minute=100)
        assert remote.rate_limiter is not None

    def test_universe_resolver_wired(self):
        dataset = build_dataset("hotpotqa", seed=1)
        remote = build_remote(dataset.universe)
        fact = dataset.universe.by_rank(0)
        result = remote.fetch_at(Query("anything", fact_id=fact.fact_id))
        assert fact.answer.split()[0] in result.result


class TestBuildEngines:
    def test_same_seed_same_behaviour(self):
        dataset = build_dataset("hotpotqa", seed=1)

        def run_one():
            remote = build_remote(dataset.universe, seed=2)
            engine = build_asteria_engine(remote, seed=5)
            now = 0.0
            outcomes = []
            fact = dataset.universe.by_rank(0)
            for variant in range(6):
                query = dataset.query_for(fact, variant)
                response = engine.handle(query, now)
                now += response.latency
                outcomes.append(response.served_from_cache)
            return outcomes

        assert run_one() == run_one()

    def test_config_propagates(self):
        engine = build_asteria_engine(
            build_remote(), AsteriaConfig(capacity_items=7, tau_sim=0.8), seed=1
        )
        assert engine.cache.capacity_items == 7
        assert engine.cache.sine.tau_sim == 0.8

    def test_policy_by_name(self):
        engine = build_asteria_engine(build_remote(), policy="lru", seed=1)
        assert engine.cache.policy.name == "lru"

    def test_index_kinds_work_end_to_end(self):
        for kind in ("flat",):
            engine = build_asteria_engine(build_remote(), index_kind=kind, seed=1)
            engine.handle(Query("who painted the mona lisa", fact_id="F"), 0.0)
            response = engine.handle(
                Query("mona lisa painter ok", fact_id="F"), 1.0
            )
            assert response.served_from_cache, kind

    def test_judge_spin_burns_cpu_not_decisions(self):
        def run(judge_spin):
            engine = build_asteria_engine(
                build_remote(seed=2), seed=5, judge_spin=judge_spin
            )
            for i in range(40):
                fact = i % 4
                engine.handle(
                    Query(f"capital city of country number {fact}", fact_id=f"F{fact}"),
                    i * 0.01,
                )
            return engine

        plain, spun = run(0.0), run(1e-5)
        assert isinstance(spun.cache.sine.judger, SpinningJudger)
        assert spun.cache.sine.judger.calls == plain.cache.sine.judger.calls > 0
        assert spun.metrics.summary() == plain.metrics.summary()

    def test_exact_and_vanilla_builders(self):
        exact = build_exact_engine(build_remote(), capacity_items=10)
        vanilla = build_vanilla_engine(build_remote())
        assert exact.cache.capacity_items == 10
        assert vanilla.name == "vanilla"
