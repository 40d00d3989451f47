"""Load generation for the asyncio serving front-end.

Two shapes, matching how serving systems are actually measured:

``run_open_loop``
    Arrivals on a fixed schedule (``rate`` requests per wall second),
    independent of completions — the generator never slows down because the
    server is struggling, so overload shows up as ``overloaded`` /
    ``deadline_exceeded`` outcomes instead of silently stretched
    inter-arrival gaps (the coordinated-omission trap of closed loops).
``run_closed_loop``
    ``concurrency`` virtual clients, each serving one request to completion
    before claiming the next — the async twin of
    :meth:`ConcurrentEngine.run_closed_loop`, kept for apples-to-apples
    throughput comparisons at matched outstanding-request counts.

Both run every request through :meth:`AsyncAsteriaEngine.serve` and report
deltas, so warm engines can be measured across several runs.
"""

from __future__ import annotations

import asyncio
from typing import Sequence

from repro.core.types import Query
from repro.serving.aio.engine import AsyncAsteriaEngine, AsyncOutcome
from repro.serving.load import LoadReport, LoadWindow, arrivals


def _walls(outcomes: Sequence[AsyncOutcome]) -> list[float]:
    return [outcome.wall_latency for outcome in outcomes if outcome.ok]


async def run_open_loop(
    engine: AsyncAsteriaEngine,
    queries: Sequence[Query],
    rate: float,
    time_step: float = 0.0,
    deadline: float | None = None,
    start: float = 0.0,
    stop: asyncio.Event | None = None,
) -> LoadReport:
    """Serve ``queries`` at a fixed arrival rate (requests per wall second).

    Request *i* is launched at wall offset ``i / rate`` whether or not
    earlier requests have completed; backpressure and deadlines decide what
    happens when the server cannot keep up. Query *i* carries simulated
    time ``start + i * time_step``.

    ``stop`` (optional) ends the arrival schedule early once set: no new
    requests launch, but everything already in flight is gathered and the
    engine drained, so a signal handler gets a complete report of the
    requests that actually ran.
    """
    queries = list(queries)
    window = LoadWindow(engine)
    tasks: list[asyncio.Task] = []
    async for i in arrivals(len(queries), rate, stop):
        tasks.append(
            asyncio.ensure_future(
                engine.serve(queries[i], start + i * time_step, deadline=deadline)
            )
        )
    outcomes = await asyncio.gather(*tasks)
    await engine.drain()
    return window.report("open", walls=_walls(outcomes), rate=rate)


async def run_closed_loop(
    engine: AsyncAsteriaEngine,
    queries: Sequence[Query],
    concurrency: int,
    time_step: float = 0.0,
    deadline: float | None = None,
    start: float = 0.0,
    stop: asyncio.Event | None = None,
) -> LoadReport:
    """Serve ``queries`` with ``concurrency`` closed-loop virtual clients.

    Each client claims the next query from a shared cursor and serves it to
    completion before claiming another, so at most ``concurrency`` requests
    are outstanding — the direct counterpart of the thread pool's
    ``run_closed_loop`` at ``workers=concurrency``.

    ``stop`` (optional) is checked before each claim: once set, clients
    finish their in-flight request and exit, and the report covers the
    requests actually served.
    """
    if concurrency < 1:
        raise ValueError(f"concurrency must be >= 1, got {concurrency}")
    queries = list(queries)
    outcomes: list[AsyncOutcome | None] = [None] * len(queries)
    cursor = iter(range(len(queries)))

    async def client() -> None:
        for i in cursor:  # next(cursor) is atomic: no await between claims
            if stop is not None and stop.is_set():
                return
            outcomes[i] = await engine.serve(
                queries[i], start + i * time_step, deadline=deadline
            )

    window = LoadWindow(engine)
    await asyncio.gather(*(client() for _ in range(concurrency)))
    await engine.drain()
    # Unfilled slots only exist when `stop` ended the run early.
    served = [outcome for outcome in outcomes if outcome is not None]
    return window.report("closed", walls=_walls(served), concurrency=concurrency)
