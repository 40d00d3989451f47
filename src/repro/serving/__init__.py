"""GPU serving substrate: MPS-style partitioning and priority co-location.

The paper co-locates the ~7B agent LLM and the ~0.6B semantic judger on one
H100 via CUDA MPS, giving the agent ~80 % of compute and protecting its
latency with a priority-aware admission controller over a unified dynamic
memory pool (§4.4, Figure 6). This package reproduces those mechanics on the
discrete-event simulator:

``GpuDevice`` / ``GpuPartition``
    A GPU with named compute partitions; work submitted to a partition with
    share *s* runs at *s* × full speed, with a bounded number of concurrent
    batch slots (continuous-batching abstraction).
``KVMemoryPool``
    Static per-workload reservations plus a shared dynamic region.
``PriorityAwareScheduler``
    Agent queue served exhaustively; judger batches admitted only when the
    agent queue is idle or its memory demand is met — the paper's two-level
    defence.
``PartitionJudgeExecutor``
    The :class:`~repro.core.engine.JudgeExecutor` wiring cache validation
    onto a (co-located or dedicated) GPU partition.

Alongside the simulated substrate, the package hosts the in-process
concurrent serving tier, the ``aio`` subpackage (one event loop; the
multi-process router in ``proc`` inherits its engine):

``AsyncAsteriaEngine`` / ``AsyncRemoteService`` / ``AsyncSingleFlight``
    Await-based serving with bounded admission (``overloaded``),
    per-request deadlines (``deadline_exceeded``), and single-flight misses that followers ``await`` instead of blocking on.
``run_open_loop``
    The fixed-arrival-rate async load generator.

``load`` holds what every load driver shares: the one ``LoadReport``, the
metrics window it is computed from, and open-loop arrival pacing.
"""

from repro.serving.aio import (
    AsyncAsteriaEngine,
    AsyncOutcome,
    AsyncRemoteService,
    AsyncSingleFlight,
    run_open_loop,
)
from repro.serving.load import LoadReport
from repro.serving.executor import PartitionJudgeExecutor
from repro.serving.gpu import GpuDevice, GpuPartition
from repro.serving.memory import KVMemoryPool
from repro.serving.scheduler import PriorityAwareScheduler

__all__ = [
    "AsyncAsteriaEngine",
    "AsyncOutcome",
    "AsyncRemoteService",
    "AsyncSingleFlight",
    "GpuDevice",
    "GpuPartition",
    "KVMemoryPool",
    "LoadReport",
    "PartitionJudgeExecutor",
    "PriorityAwareScheduler",
    "run_open_loop",
]
