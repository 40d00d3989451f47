"""Multi-process serving tier: shard workers behind a socket front door.

The thread-pool and asyncio stacks share one Python process, so embed/ANN/
judge CPU work serializes on the GIL no matter how many threads run. This
package escapes it: each worker *process* owns one :class:`AsteriaCache`
shard (arena, ANN index, and judger intact) and speaks a length-prefixed
binary protocol over localhost TCP; the router — a subclass of
:class:`~repro.serving.aio.engine.AsyncAsteriaEngine` — keeps routing,
batching, miss coalescing, resilience, and *all* metrics accounting in one
place, so the proc engine's counters aggregate exactly like every other
serving stack's.

Layers
------
``protocol``
    4-byte length-prefixed frames with a pickle payload.
``wire``
    Plain-structure converters for every type that crosses the boundary.
``worker``
    The child-process entry point: builds its shard, serves ops in a loop.
``pool``
    ``WorkerPool`` (process lifecycle) + ``ShardClient`` (per-shard frame
    batching and request pipelining).
``engine``
    ``ProcAsteriaEngine``: the async front door routing to the pool.
``supervisor``
    ``WorkerSupervisor`` (detect dead workers, respawn with backoff and
    warm restore) + ``ProcFaultInjector`` (chaos: SIGKILL / frame faults).
``server`` / ``client``
    TCP request server (``python -m repro serve``) and its socket client.
"""

from repro.serving.proc.engine import ProcAsteriaEngine
from repro.serving.proc.pool import ShardClient, WorkerError, WorkerPool, WorkerSpec
from repro.serving.proc.protocol import FrameError
from repro.serving.proc.server import ProcServer
from repro.serving.proc.client import ProcClient
from repro.serving.proc.supervisor import ProcFaultInjector, WorkerSupervisor

__all__ = [
    "FrameError",
    "ProcAsteriaEngine",
    "ProcClient",
    "ProcFaultInjector",
    "ProcServer",
    "ShardClient",
    "WorkerError",
    "WorkerPool",
    "WorkerSpec",
    "WorkerSupervisor",
]
