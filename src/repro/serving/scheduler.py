"""The priority-aware admission controller (§4.4, Figure 6).

Two queues feed the GPU: the latency-critical agent queue (Q_A) and the
deferrable judger queue (Q_J). The scheduler services Q_A exhaustively —
agent work is dispatched as soon as a batch slot and its memory allocation
are available — and admits a judger batch only when the agent queue is
empty (no agent work waiting for compute) and the judger's slot and memory
demands are met. Deferred judger work is never
dropped; it just waits, which at worst degrades one cache lookup to the
non-cached path (the paper's argument for why deferral is safe).
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Generator

from repro.core.metrics import LatencyStats
from repro.serving.gpu import GpuPartition
from repro.serving.memory import KVMemoryPool
from repro.sim.events import Event
from repro.sim.kernel import Simulator


@dataclass
class SchedulerStats:
    """Counters for admission behaviour."""

    agent_dispatched: int = 0
    judger_dispatched: int = 0
    judger_deferred: int = 0
    judger_batches: int = 0
    agent_wait: LatencyStats = field(default_factory=LatencyStats)
    judger_wait: LatencyStats = field(default_factory=LatencyStats)


class _Pending:
    __slots__ = ("work", "memory_gb", "done", "enqueued_at")

    def __init__(self, work: float, memory_gb: float, done: Event, enqueued_at: float):
        self.work = work
        self.memory_gb = memory_gb
        self.done = done
        self.enqueued_at = enqueued_at


class PriorityAwareScheduler:
    """Admission control over an agent partition, a judger partition, and a pool.

    Parameters
    ----------
    sim:
        The simulator.
    agent_partition / judger_partition:
        Compute partitions (may live on the same :class:`GpuDevice` for
        co-location, or on different devices for the dedicated baseline).
    memory:
        The unified :class:`KVMemoryPool`; None disables memory admission.
    agent_kv_gb / judger_kv_gb:
        Default memory footprint per agent request / judger batch. The
        judger's is small and predictable (prefill-only single-token
        inference, §4.4).
    shared:
        True when both partitions share one device (co-location): judger
        admission then defers to the agent queue. False for the dedicated
        two-GPU baseline, where the judger admits independently.
    judger_batch_max:
        Maximum waiting judger submissions coalesced into one partition
        execution (default 1 = no coalescing, the paper's per-lookup
        dispatch). Judger validation is prefill-only single-token inference,
        so a fleet's concurrent lookups batch naturally; coalescing spends
        one batch slot for the whole group.
    """

    def __init__(
        self,
        sim: Simulator,
        agent_partition: GpuPartition,
        judger_partition: GpuPartition,
        memory: KVMemoryPool | None = None,
        agent_kv_gb: float = 1.0,
        judger_kv_gb: float = 0.05,
        shared: bool = True,
        judger_batch_max: int = 1,
    ) -> None:
        if agent_kv_gb < 0 or judger_kv_gb < 0:
            raise ValueError("memory footprints must be >= 0")
        if judger_batch_max < 1:
            raise ValueError("judger_batch_max must be >= 1")
        self.sim = sim
        self.agent_partition = agent_partition
        self.judger_partition = judger_partition
        self.memory = memory
        self.agent_kv_gb = agent_kv_gb
        self.judger_kv_gb = judger_kv_gb
        self.shared = shared
        self.judger_batch_max = judger_batch_max
        self.stats = SchedulerStats()
        self._agent_waiting: list[_Pending] = []
        self._judger_waiting: list[_Pending] = []
        # Admitted-but-unfinished counts, updated synchronously at admission
        # time (the partition's own in_use updates asynchronously).
        self._agent_active = 0
        self._judger_active = 0

    # -- public API ---------------------------------------------------------
    def submit_agent(self, work: float, memory_gb: float | None = None) -> Generator:
        """Run ``work`` full-GPU seconds of agent inference (process-style).

        Waits for memory, then executes on the agent partition. Returns the
        execution wall time.
        """
        pending = self._enqueue(
            self._agent_waiting, work, memory_gb, self.agent_kv_gb
        )
        self._dispatch()
        yield pending.done
        return pending.done.value

    def submit_judger(self, work: float, memory_gb: float | None = None) -> Generator:
        """Run a judger batch of ``work`` full-GPU seconds (process-style).

        Deferred while agent work is queued or memory is tight. Returns the
        execution wall time.
        """
        pending = self._enqueue(
            self._judger_waiting, work, memory_gb, self.judger_kv_gb
        )
        self._dispatch()
        yield pending.done
        return pending.done.value

    # -- internals ----------------------------------------------------------------
    def _enqueue(
        self,
        queue: list[_Pending],
        work: float,
        memory_gb: float | None,
        default_gb: float,
    ) -> _Pending:
        if work < 0:
            raise ValueError("work must be >= 0")
        footprint = memory_gb if memory_gb is not None else default_gb
        pending = _Pending(work, footprint, Event(self.sim), self.sim.now)
        queue.append(pending)
        return pending

    def _dispatch(self) -> None:
        # Q_A exhaustively first.
        admitted = True
        while admitted and self._agent_waiting:
            admitted = self._try_admit_agent()
        # Q_J only once Q_A is drained (always, when nothing is shared).
        if not self.shared or not self._agent_waiting:
            admitted = True
            while admitted and self._judger_waiting:
                admitted = self._try_admit_judger()
        elif self._judger_waiting:
            self.stats.judger_deferred += 1

    def _try_admit_agent(self) -> bool:
        pending = self._agent_waiting[0]
        if self._agent_active >= self.agent_partition.slots:
            return False
        if self.memory is not None and not self.memory.allocate(
            "agent", pending.memory_gb
        ):
            return False
        self._agent_waiting.pop(0)
        self._agent_active += 1
        self.stats.agent_dispatched += 1
        self.stats.agent_wait.add(self.sim.now - pending.enqueued_at)
        self.sim.process(self._run(pending, self.agent_partition, "agent"))
        return True

    def _try_admit_judger(self) -> bool:
        """Admit up to ``judger_batch_max`` waiting judger submissions.

        The batch occupies one partition slot and executes as one combined
        run (judger work is additive prefill compute); memory is allocated
        per submission, so the batch shrinks to whatever fits.
        """
        if self._judger_active >= self.judger_partition.slots:
            return False
        batch: list[_Pending] = []
        for pending in self._judger_waiting[: self.judger_batch_max]:
            if self.memory is not None and not self.memory.allocate(
                "judger", pending.memory_gb
            ):
                break
            batch.append(pending)
        if not batch:
            return False
        del self._judger_waiting[: len(batch)]
        self._judger_active += 1
        self.stats.judger_dispatched += len(batch)
        self.stats.judger_batches += 1
        for pending in batch:
            self.stats.judger_wait.add(self.sim.now - pending.enqueued_at)
        self.sim.process(self._run_judger_batch(batch))
        return True

    def _run(
        self, pending: _Pending, partition: GpuPartition, workload: str
    ) -> Generator:
        try:
            duration = yield from partition.execute(pending.work)
        finally:
            if self.memory is not None:
                self.memory.release(workload, pending.memory_gb)
            if workload == "agent":
                self._agent_active -= 1
            else:
                self._judger_active -= 1
        pending.done.succeed(duration)
        self._dispatch()

    def _run_judger_batch(self, batch: list[_Pending]) -> Generator:
        try:
            duration = yield from self.judger_partition.execute(
                sum(pending.work for pending in batch)
            )
        finally:
            if self.memory is not None:
                for pending in batch:
                    self.memory.release("judger", pending.memory_gb)
            self._judger_active -= 1
        for pending in batch:
            pending.done.succeed(duration)
        self._dispatch()

    def __repr__(self) -> str:
        return (
            f"PriorityAwareScheduler(agent_waiting={len(self._agent_waiting)}, "
            f"judger_waiting={len(self._judger_waiting)})"
        )
