"""Tests for agent tasks and the scripted think-act-observe loop."""

import pytest

from repro.agent import AgentLatencyModel, AgentTask, CodeAgent, SearchAgent
from repro.agent.model import AgentStats
from repro.agent.parser import extract_blocks
from repro.core import Query
from repro.factory import build_asteria_engine, build_remote, build_vanilla_engine
from repro.sim import Simulator


def make_task(n_hops=2, fact_prefix="F"):
    queries = tuple(
        Query(f"distinct topic number {i} zebra", fact_id=f"{fact_prefix}{i}")
        for i in range(n_hops)
    )
    return AgentTask(
        task_id="t1", question="test question", queries=queries, answer="42"
    )


class TestAgentTask:
    def test_hops(self):
        assert make_task(3).hops == 3

    def test_empty_queries_rejected(self):
        with pytest.raises(ValueError):
            AgentTask(task_id="t", question="q", queries=())


class TestAgentLatencyModel:
    def test_default_calibrated_to_figure_11(self):
        model = AgentLatencyModel()
        samples = [model.sample_step() for _ in range(200)]
        assert 0.55 < sum(samples) / len(samples) < 0.65
        assert min(samples) >= 0.2

    def test_constant_override(self):
        model = AgentLatencyModel(per_step=0.5)
        assert model.sample_step() == 0.5


class TestAnalyticExecution:
    def test_task_result_accounting(self):
        remote = build_remote()
        agent = SearchAgent(
            build_vanilla_engine(remote), AgentLatencyModel(per_step=0.6)
        )
        result = agent.run_task(make_task(2), now=0.0)
        assert result.steps == 2
        assert result.hits == 0
        assert result.inference_latency == pytest.approx(1.8)  # 2 hops + answer
        assert result.latency == pytest.approx(
            result.inference_latency + result.retrieval_latency
        )

    def test_answer_step_disabled(self):
        remote = build_remote()
        agent = SearchAgent(
            build_vanilla_engine(remote),
            AgentLatencyModel(per_step=0.6),
            answer_step=False,
        )
        result = agent.run_task(make_task(2))
        assert result.inference_latency == pytest.approx(1.2)

    def test_hits_counted(self):
        remote = build_remote()
        engine = build_asteria_engine(remote, seed=1)
        agent = SearchAgent(engine)
        task = AgentTask(
            task_id="t",
            question="q",
            queries=(
                Query("height of everest", fact_id="F"),
                Query("everest height please", fact_id="F"),
            ),
        )
        result = agent.run_task(task)
        assert result.hits == 1
        assert result.knowledge_correct

    def test_trajectory_rendering(self):
        remote = build_remote()
        agent = SearchAgent(
            build_vanilla_engine(remote), record_trajectory=True
        )
        result = agent.run_task(make_task(1))
        blocks = extract_blocks(result.trajectory)
        assert [block.tag for block in blocks] == [
            "think", "search", "info", "answer",
        ]

    def test_code_agent_uses_file_tag(self):
        remote = build_remote()
        agent = CodeAgent(build_vanilla_engine(remote), record_trajectory=True)
        result = agent.run_task(make_task(1))
        assert "<file>" in result.trajectory


class TestProcessExecution:
    def test_process_and_analytic_agree_on_structure(self):
        remote = build_remote()
        agent = SearchAgent(
            build_vanilla_engine(remote), AgentLatencyModel(per_step=0.6)
        )
        sim = Simulator()
        process = sim.process(agent.run_task_process(sim, make_task(2)))
        sim.run()
        result = process.value
        assert result.steps == 2
        assert result.latency == pytest.approx(sim.now)
        assert result.inference_latency == pytest.approx(1.8)


class TestAgentFlow:
    def test_bare_loop_yields_steps_and_queries_in_order(self):
        """The loop with no engine and no clock: scripted replies in, the
        effects and the TaskResult out."""
        from repro.agent.base import agent_flow

        agent = SearchAgent(None, AgentLatencyModel(per_step=0.5))
        task = make_task(1)
        flow = agent_flow(agent, task, 10.0)
        assert flow.send(None) == 0.5  # infer
        assert flow.send((0.5, 10.5)) is task.queries[0]  # ask
        response = build_asteria_engine(build_remote()).handle(task.queries[0], 10.5)
        assert flow.send((response, 0.25, 10.75)) == 0.5  # answer step
        with pytest.raises(StopIteration) as stop:
            flow.send((0.75, 11.5))  # a scheduler may take longer than the work
        result = stop.value.value
        assert result.latency == 1.5 and result.finished_at == 11.5
        assert result.inference_latency == 1.25
        assert result.retrieval_latency == 0.25
        assert result.hits == 0 and result.knowledge_correct


class TestAgentStats:
    def test_aggregates(self):
        stats = AgentStats()
        remote = build_remote()
        agent = SearchAgent(build_vanilla_engine(remote))
        for index in range(5):
            stats.add(agent.run_task(make_task(1, fact_prefix=f"T{index}-")))
        assert stats.tasks == 5
        assert stats.mean_latency > 0
        assert stats.accuracy == 1.0
        assert stats.throughput(horizon=10.0) == 0.5

    def test_empty_stats(self):
        stats = AgentStats()
        assert stats.mean_latency == 0.0
        assert stats.accuracy == 1.0
        assert stats.percentile_latency(99) == 0.0

    def test_invalid_horizon_rejected(self):
        with pytest.raises(ValueError):
            AgentStats().throughput(0.0)
