"""Tests for judge executors."""

import pytest

from repro.serving import (
    GpuDevice,
    KVMemoryPool,
    PartitionJudgeExecutor,
    PriorityAwareScheduler,
)
from repro.sim import Simulator


class TestPartitionJudgeExecutor:
    def _scheduler(self, sim, share=0.2, speed_exponent=0.3):
        gpu = GpuDevice(sim)
        agent = gpu.partition("agent", 1.0 - share, slots=4)
        judger = gpu.partition(
            "judger", share, slots=2, speed_exponent=speed_exponent
        )
        memory = KVMemoryPool(80.0, {"agent": 56.0, "judger": 4.0})
        return PriorityAwareScheduler(sim, agent, judger, memory)

    def test_latency_reflects_partition_speed(self, sim):
        scheduler = self._scheduler(sim)
        executor = PartitionJudgeExecutor(
            scheduler, base_work=0.012, per_item_work=0.006
        )

        def run():
            yield from executor.run(sim, judged=1)

        sim.process(run())
        sim.run()
        expected = 0.018 / 0.2**0.3
        assert sim.now == pytest.approx(expected)
        # Calibration check: ~0.03 s on the co-located 20% partition.
        assert 0.025 < sim.now < 0.035

    def test_zero_judged_costs_nothing(self, sim):
        scheduler = self._scheduler(sim)
        executor = PartitionJudgeExecutor(scheduler)

        def run():
            yield from executor.run(sim, judged=0)

        sim.process(run())
        sim.run()
        assert sim.now == 0.0
        assert executor.batches == 0

    def test_batches_counted(self, sim):
        scheduler = self._scheduler(sim)
        executor = PartitionJudgeExecutor(scheduler)

        def run():
            yield from executor.run(sim, judged=2)
            yield from executor.run(sim, judged=1)

        sim.process(run())
        sim.run()
        assert executor.batches == 2

    def test_invalid_work_rejected(self, sim):
        scheduler = self._scheduler(sim)
        with pytest.raises(ValueError):
            PartitionJudgeExecutor(scheduler, base_work=-0.1)
