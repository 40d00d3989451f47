"""Tests for the workload replay drivers."""

import pytest

from repro.agent import SearchAgent
from repro.core import Query
from repro.factory import build_asteria_engine, build_remote, build_vanilla_engine
from repro.sim import Simulator
from repro.workloads import (
    SkewedWorkload,
    build_dataset,
    run_closed_loop,
    run_open_loop,
    run_task_closed_loop,
    run_task_concurrent,
)


@pytest.fixture
def dataset():
    return build_dataset("hotpotqa", seed=1)


class TestClosedLoop:
    def test_sequential_clock_advances(self, dataset):
        engine = build_vanilla_engine(build_remote(dataset.universe))
        queries = SkewedWorkload(dataset, seed=2).queries(10)
        responses, finish = run_closed_loop(engine, queries, think_time=0.1)
        assert len(responses) == 10
        assert finish == pytest.approx(
            sum(response.latency for response in responses) + 10 * 0.1
        )

    def test_negative_think_time_rejected(self, dataset):
        engine = build_vanilla_engine(build_remote(dataset.universe))
        with pytest.raises(ValueError):
            run_closed_loop(engine, [], think_time=-1.0)

    def test_task_closed_loop_sequences_tasks(self, dataset):
        engine = build_vanilla_engine(build_remote(dataset.universe))
        agent = SearchAgent(engine)
        tasks = SkewedWorkload(dataset, seed=2).single_hop_tasks(5)
        stats = run_task_closed_loop(agent, tasks)
        assert stats.tasks == 5
        finishes = [result.finished_at for result in stats.results]
        assert finishes == sorted(finishes)


class TestOpenLoop:
    def test_arrivals_respected(self, dataset):
        engine = build_vanilla_engine(build_remote(dataset.universe))
        sim = Simulator()
        timed = [(float(index), Query(f"q{index}")) for index in range(5)]
        responses = run_open_loop(sim, engine, timed)
        assert len(responses) == 5
        assert sim.now >= 4.0

    def test_unordered_arrivals_rejected(self, dataset):
        engine = build_vanilla_engine(build_remote(dataset.universe))
        sim = Simulator()
        timed = [(2.0, Query("a")), (1.0, Query("b"))]
        with pytest.raises(ValueError):
            run_open_loop(sim, engine, timed)


class TestConcurrent:
    def test_all_tasks_complete(self, dataset):
        engine = build_asteria_engine(build_remote(dataset.universe), seed=1)
        agent = SearchAgent(engine)
        tasks = SkewedWorkload(dataset, seed=2).single_hop_tasks(30)
        sim = Simulator()
        stats = run_task_concurrent(sim, agent, tasks, concurrency=4)
        assert stats.tasks == 30

    def test_concurrency_speeds_up_wall_time(self, dataset):
        def run_at(concurrency):
            engine = build_vanilla_engine(build_remote(dataset.universe, seed=1))
            agent = SearchAgent(engine)
            tasks = SkewedWorkload(dataset, seed=2).single_hop_tasks(16)
            sim = Simulator()
            run_task_concurrent(sim, agent, tasks, concurrency=concurrency)
            return sim.now

        assert run_at(8) < run_at(1) / 3

    def test_invalid_concurrency_rejected(self, dataset):
        engine = build_vanilla_engine(build_remote(dataset.universe))
        with pytest.raises(ValueError):
            run_task_concurrent(Simulator(), SearchAgent(engine), [], concurrency=0)
