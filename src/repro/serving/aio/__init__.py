"""Asyncio serving subsystem: await-based remote I/O over the Asteria stack.

The event-loop counterpart of the thread-pool layer in
``repro.serving.concurrent``: remote waits are ``await``-points instead of
blocked threads, so one OS thread sustains thousands of in-flight fetches.

``AsyncRemoteService``
    Awaitable wrapper over :class:`~repro.network.remote.RemoteDataService`;
    the simulated wide-area latency becomes a real ``asyncio.sleep``.
``AsyncSingleFlight``
    Await-based miss coalescing — followers await the leader's future, and
    leader flights run as background tasks shielded from caller deadlines.
``AsyncAsteriaEngine``
    The serving front-end: bounded admission (``overloaded`` beyond
    ``max_inflight``), per-request deadlines (``deadline_exceeded`` instead
    of hanging), optional hedged second fetches past a latency percentile,
    and fault-tolerant degradation (``stale_hit``/``failed`` outcomes via
    the engine's :class:`~repro.core.resilience.ResilienceManager`).
``run_open_loop`` / ``run_closed_loop``
    Load generators: fixed-arrival-rate open loop (the honest overload
    measurement) and a matched-concurrency closed loop for comparisons with
    the thread pool.
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
from repro.serving.aio.load import run_closed_loop, run_open_loop
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
    "run_closed_loop",
    "run_open_loop",
]
