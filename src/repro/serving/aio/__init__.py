"""Asyncio serving subsystem: await-based remote I/O over the Asteria stack.

The one in-process concurrent serving tier (DESIGN §8 records why it is an
event loop and not a thread pool): remote waits are ``await``-points, so
one OS thread sustains thousands of in-flight fetches. The multi-process
router (``repro.serving.proc``) inherits its engine.

``AsyncRemoteService``
    Awaitable wrapper over :class:`~repro.network.remote.RemoteDataService`;
    the simulated wide-area latency becomes a real ``asyncio.sleep``.
``AsyncSingleFlight``
    Await-based miss coalescing — followers await the leader's future, and
    leader flights run as background tasks shielded from caller deadlines.
``AsyncAsteriaEngine``
    The serving front-end: bounded admission (``overloaded`` beyond
    ``max_inflight``), per-request deadlines (``deadline_exceeded`` instead
    of hanging), and fault-tolerant degradation (``stale_hit``/``failed``
    outcomes via the engine's :class:`~repro.core.resilience.ResilienceManager`).
``run_open_loop``
    The load generator: a fixed-arrival-rate open loop (the honest overload
    measurement).
"""

from repro.serving.aio.engine import (
    STATUS_DEADLINE,
    STATUS_FAILED,
    STATUS_OK,
    STATUS_OVERLOADED,
    STATUS_STALE,
    AsyncAsteriaEngine,
    AsyncOutcome,
)
from repro.serving.aio.load import run_open_loop
from repro.serving.aio.remote import AsyncRemoteService
from repro.serving.aio.singleflight import AsyncSingleFlight

__all__ = [
    "STATUS_DEADLINE",
    "STATUS_FAILED",
    "STATUS_OK",
    "STATUS_OVERLOADED",
    "STATUS_STALE",
    "AsyncAsteriaEngine",
    "AsyncOutcome",
    "AsyncRemoteService",
    "AsyncSingleFlight",
    "run_open_loop",
]
