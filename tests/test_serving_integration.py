"""Integration tests for the serving stack under contention."""

import pytest

from repro.core import AsteriaConfig
from repro.core.engine import _ConfigLatencyExecutor
from repro.serving import (
    GpuDevice,
    KVMemoryPool,
    PartitionJudgeExecutor,
    PriorityAwareScheduler,
)
from repro.sim import Simulator


def colocated(sim, agent_slots=2, judger_slots=1, dynamic_gb=4.0):
    gpu = GpuDevice(sim, "gpu0")
    agent = gpu.partition("agent", 0.8, slots=agent_slots, speed_exponent=0.3)
    judger = gpu.partition("judger", 0.2, slots=judger_slots, speed_exponent=0.3)
    memory = KVMemoryPool(
        8.0 + dynamic_gb, {"agent": 8.0, "judger": 0.0}
    )
    scheduler = PriorityAwareScheduler(
        sim, agent, judger, memory, agent_kv_gb=4.0, judger_kv_gb=2.0
    )
    return gpu, scheduler


class TestMemoryGatedAdmission:
    def test_judger_spills_into_dynamic_pool(self):
        sim = Simulator()
        _, scheduler = colocated(sim, dynamic_gb=4.0)
        done = []

        def judger_job():
            yield from scheduler.submit_judger(0.01)
            done.append(sim.now)

        sim.process(judger_job())
        sim.run()
        assert done  # 2 GB fits the 4 GB dynamic region
        assert scheduler.memory.used_by("judger") == 0.0  # released after

    def test_judger_blocked_until_agent_releases_dynamic_memory(self):
        sim = Simulator()
        _, scheduler = colocated(sim, dynamic_gb=2.0)
        order = []

        def agent_job():
            # 4 GB static + spill: two concurrent agents use 8 static; a
            # third would spill. Here one agent occupying dynamic via a
            # larger footprint blocks the judger's 2 GB.
            yield from scheduler.submit_agent(0.8, memory_gb=10.0)
            order.append((sim.now, "agent"))

        def judger_job():
            yield sim.timeout(0.01)
            yield from scheduler.submit_judger(0.01, memory_gb=2.0)
            order.append((sim.now, "judger"))

        sim.process(agent_job())
        sim.process(judger_job())
        sim.run()
        names = [name for _, name in order]
        assert names == ["agent", "judger"]  # judger waited for the release

    def test_agent_queue_length_reflects_waiting_work(self):
        sim = Simulator()
        _, scheduler = colocated(sim, agent_slots=1)
        for _ in range(3):
            sim.process(self_submit(scheduler, 0.8))
        sim.run(until=0.01)
        waiting = len(scheduler._agent_waiting) + scheduler.agent_partition.queue_length
        assert waiting >= 1

    def test_utilization_and_rental_accounting(self):
        sim = Simulator()
        gpu, scheduler = colocated(sim)

        def workload():
            yield from scheduler.submit_agent(0.8)

        sim.process(workload())
        sim.run()
        horizon = sim.now
        assert gpu.rental_gpu_seconds == pytest.approx(horizon)
        agent_partition = scheduler.agent_partition
        assert agent_partition.busy_seconds > 0
        assert agent_partition.busy_seconds <= horizon * agent_partition.slots


def self_submit(scheduler, work):
    yield from scheduler.submit_agent(work)


class TestExecutorsUnderLoad:
    def test_partition_executor_serialises_beyond_slots(self):
        sim = Simulator()
        _, scheduler = colocated(sim, judger_slots=1)
        executor = PartitionJudgeExecutor(scheduler)
        finish = []

        def validation(index):
            yield from executor.run(sim, judged=1)
            finish.append(sim.now)

        for index in range(3):
            sim.process(validation(index))
        sim.run()
        assert len(finish) == 3
        # One slot: completions strictly ordered, spaced by the service time.
        assert finish == sorted(finish)
        assert finish[1] - finish[0] > 0.01

    def test_fixed_executor_is_parallel(self):
        sim = Simulator()
        # The engine's default: base 0.02 s + 0.01 s per judged candidate.
        executor = _ConfigLatencyExecutor(AsteriaConfig())
        finish = []

        def validation():
            yield from executor.run(sim, judged=1)
            finish.append(sim.now)

        for _ in range(3):
            sim.process(validation())
        sim.run()
        assert finish == [pytest.approx(0.03)] * 3


class TestEndToEndColocationPath:
    def test_engine_judging_queues_behind_agent_burst(self):
        """A burst of agent inference delays (but never starves) validation."""
        from repro.core import AsteriaConfig, Query
        from repro.factory import build_asteria_engine, build_remote

        sim = Simulator()
        _, scheduler = colocated(sim, agent_slots=1)
        executor = PartitionJudgeExecutor(scheduler)
        engine = build_asteria_engine(
            build_remote(), AsteriaConfig(), seed=1, judge_executor=executor
        )
        warm = sim.process(
            engine.process(sim, Query("height of everest", fact_id="F"))
        )
        sim.run()

        responses = []

        def agent_step():
            yield from scheduler.submit_agent(0.6)

        def lookup():
            yield sim.timeout(0.01)  # arrive while the burst is queued
            response = yield from engine.process(
                sim, Query("everest height ok", fact_id="F")
            )
            responses.append(response)

        # Concurrent submissions: one runs, two wait in Q_A -> deferral.
        for _ in range(3):
            sim.process(agent_step())
        sim.process(lookup())
        sim.run()
        (response,) = responses
        assert response.served_from_cache
        # Validation was deferred behind ~3 agent steps, far beyond the
        # uncontended 0.03 s judging cost.
        assert response.latency > 1.0
