"""Load generation for the asyncio serving front-end.

``run_open_loop`` puts arrivals on a fixed schedule (``rate`` requests per
wall second), independent of completions — the generator never slows down
because the server is struggling, so overload shows up as ``overloaded`` /
``deadline_exceeded`` outcomes instead of silently stretched inter-arrival
gaps (the coordinated-omission trap of closed loops). Every request runs
through :meth:`AsyncAsteriaEngine.serve` and the report is a delta, so a
warm engine can be measured across several runs.
"""

from __future__ import annotations

import asyncio
from typing import Sequence

from repro.core.types import Query
from repro.serving.aio.engine import AsyncAsteriaEngine
from repro.serving.load import LoadReport, LoadWindow, arrivals


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
    walls = [outcome.wall_latency for outcome in outcomes if outcome.ok]
    return window.report("open", walls=walls, rate=rate)
