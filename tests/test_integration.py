"""Cross-module integration invariants: the paper's headline claims hold
end-to-end on shared workloads."""

import pytest

from repro.agent import SearchAgent
from repro.core import AsteriaConfig, Query
from repro.factory import (
    build_asteria_engine,
    build_exact_engine,
    build_remote,
    build_vanilla_engine,
)
from repro.sim import Simulator
from repro.workloads import (
    SkewedWorkload,
    build_dataset,
    run_task_closed_loop,
    run_task_concurrent,
)


@pytest.fixture(scope="module")
def dataset():
    return build_dataset("musique", seed=1)


def run_engine(engine, dataset, n=200, seed=2):
    workload = SkewedWorkload(dataset, seed=seed)
    agent = SearchAgent(engine, answer_step=False)
    return run_task_closed_loop(agent, workload.single_hop_tasks(n))


class TestHeadlineClaims:
    def test_hit_rate_ordering_asteria_exact_vanilla(self, dataset):
        capacity = dataset.capacity_for(0.4)
        asteria = build_asteria_engine(
            build_remote(dataset.universe, seed=3),
            AsteriaConfig(capacity_items=capacity),
            seed=5,
        )
        exact = build_exact_engine(
            build_remote(dataset.universe, seed=3), capacity_items=capacity
        )
        vanilla = build_vanilla_engine(build_remote(dataset.universe, seed=3))
        # 400 tasks amortise the ~60 compulsory cold-start misses.
        run_engine(asteria, dataset, n=400)
        run_engine(exact, dataset, n=400)
        run_engine(vanilla, dataset, n=400)
        assert (
            asteria.metrics.hit_rate
            > exact.metrics.hit_rate
            >= vanilla.metrics.hit_rate
        )
        assert asteria.metrics.hit_rate > 0.75
        assert exact.metrics.hit_rate < 0.25

    def test_correctness_preserved_with_judger(self, dataset):
        capacity = dataset.capacity_for(0.6)
        asteria = build_asteria_engine(
            build_remote(dataset.universe, seed=3),
            AsteriaConfig(capacity_items=capacity),
            seed=5,
        )
        stats = run_engine(asteria, dataset, n=300)
        assert asteria.metrics.accuracy > 0.99
        assert stats.accuracy > 0.99

    def test_ann_only_degrades_correctness(self, dataset):
        capacity = dataset.capacity_for(0.6)
        ann_only = build_asteria_engine(
            build_remote(dataset.universe, seed=3),
            AsteriaConfig(capacity_items=capacity, match="ann_only"),
            seed=5,
            name="ann_only",
        )
        run_engine(ann_only, dataset, n=300)
        assert ann_only.metrics.served_incorrect > 0
        assert ann_only.metrics.accuracy < 0.99

    def test_api_cost_reduction(self, dataset):
        capacity = dataset.capacity_for(0.4)
        remote_asteria = build_remote(dataset.universe, seed=3)
        remote_vanilla = build_remote(dataset.universe, seed=3)
        asteria = build_asteria_engine(
            remote_asteria, AsteriaConfig(capacity_items=capacity), seed=5
        )
        vanilla = build_vanilla_engine(remote_vanilla)
        run_engine(asteria, dataset)
        run_engine(vanilla, dataset)
        assert remote_asteria.cost_meter.api_cost < 0.4 * remote_vanilla.cost_meter.api_cost

    def test_cache_stays_within_capacity_under_load(self, dataset):
        capacity = dataset.capacity_for(0.1)
        engine = build_asteria_engine(
            build_remote(dataset.universe, seed=3),
            AsteriaConfig(capacity_items=capacity),
            seed=5,
        )
        sim = Simulator()
        workload = SkewedWorkload(dataset, seed=2)
        run_task_concurrent(
            sim,
            SearchAgent(engine, answer_step=False),
            workload.single_hop_tasks(300),
            concurrency=8,
        )
        assert len(engine.cache) <= capacity
        assert engine.metrics.evictions > 0

    def test_ttl_keeps_cache_fresh(self, dataset):
        engine = build_asteria_engine(
            build_remote(dataset.universe, seed=3),
            AsteriaConfig(default_ttl=5.0),
            seed=5,
        )
        fact = dataset.universe.by_rank(0)
        engine.handle(dataset.query_for(fact, 0), now=0.0)
        stale = engine.handle(dataset.query_for(fact, 1), now=100.0)
        assert not stale.served_from_cache
        assert engine.metrics.expirations >= 1

    def test_deterministic_end_to_end(self, dataset):
        def one_run():
            engine = build_asteria_engine(
                build_remote(dataset.universe, seed=3),
                AsteriaConfig(capacity_items=dataset.capacity_for(0.4)),
                seed=5,
            )
            sim = Simulator()
            workload = SkewedWorkload(dataset, seed=2)
            stats = run_task_concurrent(
                sim,
                SearchAgent(engine, answer_step=False),
                workload.single_hop_tasks(120),
                concurrency=4,
            )
            return (
                round(sim.now, 9),
                engine.metrics.hits,
                engine.metrics.misses,
                round(stats.mean_latency, 9),
            )

        assert one_run() == one_run()

    def test_mixed_tools_share_one_engine(self, dataset):
        """Search and file queries coexist; semantic match never crosses tools
        by accident (different content tokens keep them apart)."""
        from repro.workloads import SWEBenchWorkload

        remote = build_remote(dataset.universe, seed=3)
        engine = build_asteria_engine(remote, seed=5)
        search_query = dataset.query_for(dataset.universe.by_rank(0), 0)
        engine.handle(search_query, 0.0)
        issue = SWEBenchWorkload(seed=6).next_issue(0)
        response = engine.handle(issue.queries[0], 1.0)
        assert not response.served_from_cache

    def test_throughput_gain_under_concurrency_and_rate_limit(self, dataset):
        capacity = dataset.capacity_for(0.4)

        def run_system(build):
            remote = build_remote(
                dataset.universe, rate_limit_per_minute=100, seed=3
            )
            engine = build(remote)
            sim = Simulator()
            workload = SkewedWorkload(dataset, seed=2)
            stats = run_task_concurrent(
                sim,
                SearchAgent(engine, answer_step=False),
                workload.single_hop_tasks(250),
                concurrency=8,
            )
            return stats.tasks / sim.now

        asteria_rps = run_system(
            lambda remote: build_asteria_engine(
                remote, AsteriaConfig(capacity_items=capacity), seed=5
            )
        )
        vanilla_rps = run_system(build_vanilla_engine)
        assert asteria_rps > 2.0 * vanilla_rps
