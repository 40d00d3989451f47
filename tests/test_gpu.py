"""Tests for the GPU device and partition model."""

import pytest

from repro.serving import GpuDevice, GpuPartition


class TestGpuPartition:
    def test_service_time_scales_linearly_by_default(self, sim):
        partition = GpuPartition(sim, "agent", share=0.5)
        assert partition.service_time(1.0) == pytest.approx(2.0)

    def test_speed_exponent_sublinear(self, sim):
        partition = GpuPartition(sim, "agent", share=0.8, speed_exponent=0.3)
        assert partition.service_time(0.6) == pytest.approx(0.6 / 0.8**0.3)

    def test_full_share_runs_at_native_speed(self, sim):
        partition = GpuPartition(sim, "agent", share=1.0)
        assert partition.service_time(0.6) == pytest.approx(0.6)

    def test_execute_occupies_slot_for_service_time(self, sim):
        partition = GpuPartition(sim, "agent", share=1.0, slots=1)
        done = []

        def job(work):
            duration = yield from partition.execute(work)
            done.append((sim.now, duration))

        sim.process(job(0.5))
        sim.process(job(0.5))
        sim.run()
        # Second job queues behind the first on the single slot.
        assert done == [(0.5, 0.5), (1.0, 0.5)]

    def test_slots_allow_parallel_batches(self, sim):
        partition = GpuPartition(sim, "agent", share=1.0, slots=2)
        done = []

        def job():
            yield from partition.execute(0.5)
            done.append(sim.now)

        for _ in range(2):
            sim.process(job())
        sim.run()
        assert done == [0.5, 0.5]

    def test_busy_seconds_accumulate(self, sim):
        partition = GpuPartition(sim, "agent", share=0.5, slots=1)

        def job():
            yield from partition.execute(0.5)

        sim.process(job())
        sim.run()
        assert partition.busy_seconds == pytest.approx(1.0)
        assert partition.completed == 1

    def test_invalid_parameters_rejected(self, sim):
        with pytest.raises(ValueError):
            GpuPartition(sim, "x", share=0.0)
        with pytest.raises(ValueError):
            GpuPartition(sim, "x", share=1.5)
        with pytest.raises(ValueError):
            GpuPartition(sim, "x", share=0.5, slots=0)
        partition = GpuPartition(sim, "x", share=0.5)
        with pytest.raises(ValueError):
            partition.service_time(-1.0)


class TestGpuDevice:
    def test_partitions_cannot_oversubscribe(self, sim):
        gpu = GpuDevice(sim)
        gpu.partition("agent", 0.8)
        with pytest.raises(ValueError):
            gpu.partition("judger", 0.3)

    def test_exact_full_allocation_allowed(self, sim):
        gpu = GpuDevice(sim)
        agent = gpu.partition("agent", 0.8)
        judger = gpu.partition("judger", 0.2)
        assert (agent.share, judger.share) == (0.8, 0.2)

    def test_duplicate_partition_name_rejected(self, sim):
        gpu = GpuDevice(sim)
        gpu.partition("agent", 0.5)
        with pytest.raises(ValueError):
            gpu.partition("agent", 0.2)

    def test_rental_seconds_track_wall_time(self, sim):
        gpu = GpuDevice(sim)
        sim.schedule(10.0, lambda: None)
        sim.run()
        assert gpu.rental_gpu_seconds == pytest.approx(10.0)

    def test_busy_seconds_sum_partitions(self, sim):
        gpu = GpuDevice(sim)
        agent = gpu.partition("agent", 0.5, slots=1)
        judger = gpu.partition("judger", 0.5, slots=1)

        def job(partition, work):
            yield from partition.execute(work)

        sim.process(job(agent, 0.25))
        sim.process(job(judger, 0.25))
        sim.run()
        assert gpu.busy_seconds() == pytest.approx(1.0)  # 0.5 wall each.
