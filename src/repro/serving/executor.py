"""Judge executors: where cache-validation inference actually runs.

The engine calls an executor with the number of candidates a lookup judged;
the executor models the corresponding inference. Constant-latency judging,
for when GPU contention is out of scope, is the engine's default executor;
:class:`PartitionJudgeExecutor` runs judging as batches on a GPU partition
behind the priority-aware scheduler. Give it the 20 % partition of a shared
device for the co-located system, or a partition on its own device for
"Asteria w/o Sharing".

Default work constants are calibrated to Figure 11: one-candidate validation
costs ≈0.018 full-GPU seconds, which is ≈0.03 s of wall time on a 20 %
MPS partition with the Table-7 speed exponent.
"""

from __future__ import annotations

from typing import Generator

from repro.serving.scheduler import PriorityAwareScheduler

#: Full-GPU seconds per judger invocation (prompt assembly + prefill setup).
DEFAULT_JUDGE_BASE_WORK = 0.012
#: Additional full-GPU seconds per judged candidate (one prefill each).
DEFAULT_JUDGE_PER_ITEM_WORK = 0.006


class PartitionJudgeExecutor:
    """Judging as scheduled batches on a GPU partition.

    Parameters
    ----------
    scheduler:
        The :class:`PriorityAwareScheduler` guarding the partition; judger
        batches queue behind agent work per the paper's admission policy.
    base_work / per_item_work:
        Full-GPU seconds per batch and per candidate.
    """

    def __init__(
        self,
        scheduler: PriorityAwareScheduler,
        base_work: float = DEFAULT_JUDGE_BASE_WORK,
        per_item_work: float = DEFAULT_JUDGE_PER_ITEM_WORK,
    ) -> None:
        if base_work < 0 or per_item_work < 0:
            raise ValueError("work amounts must be >= 0")
        self.scheduler = scheduler
        self.base_work = base_work
        self.per_item_work = per_item_work
        self.batches = 0

    def run(self, sim, judged: int) -> Generator:
        """Submit one judger batch through the priority scheduler."""
        if judged <= 0:
            return None
        self.batches += 1
        work = self.base_work + self.per_item_work * judged
        yield from self.scheduler.submit_judger(work)
        return None

    def __repr__(self) -> str:
        return f"PartitionJudgeExecutor(batches={self.batches})"
