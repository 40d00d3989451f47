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
``FixedLatencyExecutor`` / ``PartitionJudgeExecutor``
    :class:`~repro.core.engine.JudgeExecutor` implementations wiring cache
    validation onto (co-located or dedicated) GPU partitions.

Alongside the simulated substrate, the package hosts the *real-thread*
serving layer (see ``concurrent`` and ``singleflight``):

``ConcurrentEngine``
    A thread-pool front-end over :class:`~repro.core.engine.AsteriaEngine`
    with a closed-loop multi-worker load generator.
``SingleFlight``
    Thundering-herd suppression for concurrent misses — the real-thread
    twin of the simulator's miss-coalescing study.

The ``aio`` subpackage is the event-loop counterpart of the thread layer:

``AsyncAsteriaEngine`` / ``AsyncRemoteService`` / ``AsyncSingleFlight``
    Await-based serving with bounded admission (``overloaded``),
    per-request deadlines (``deadline_exceeded``), hedged fetches, and
    single-flight misses that followers ``await`` instead of blocking on.
``run_open_loop`` / ``run_closed_loop``
    Fixed-arrival-rate and matched-concurrency async load generators.

``load`` holds what every load driver shares: the one ``LoadReport``, the
metrics window it is computed from, and open-loop arrival pacing.
"""

from repro.serving.aio import (
    AsyncAsteriaEngine,
    AsyncOutcome,
    AsyncRemoteService,
    AsyncSingleFlight,
    run_closed_loop,
    run_open_loop,
)
from repro.serving.concurrent import ConcurrentEngine
from repro.serving.load import LoadReport
from repro.serving.executor import FixedLatencyExecutor, PartitionJudgeExecutor
from repro.serving.gpu import GpuDevice, GpuPartition
from repro.serving.memory import KVMemoryPool
from repro.serving.scheduler import PriorityAwareScheduler
from repro.serving.singleflight import SingleFlight

__all__ = [
    "AsyncAsteriaEngine",
    "AsyncOutcome",
    "AsyncRemoteService",
    "AsyncSingleFlight",
    "ConcurrentEngine",
    "FixedLatencyExecutor",
    "GpuDevice",
    "GpuPartition",
    "KVMemoryPool",
    "LoadReport",
    "PartitionJudgeExecutor",
    "PriorityAwareScheduler",
    "SingleFlight",
    "run_closed_loop",
    "run_open_loop",
]
