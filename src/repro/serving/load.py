"""What every load driver shares: the report, the metrics window it is
computed from, and open-loop arrival pacing.

The loops themselves stay with their schedulers — asyncio
(:mod:`repro.serving.aio.load`), a socket
(:func:`repro.serving.proc.client.run_open_loop_socket`), and the serial
baseline below — because how a loop overlaps requests *is* the scheduler.
What a run *measured* is one thing: a window over the engine's
:class:`~repro.core.metrics.EngineMetrics`, turned into one
:class:`LoadReport` by one function, :func:`load_report`.
"""

from __future__ import annotations

import asyncio
import time
from dataclasses import dataclass
from typing import AsyncIterator, Sequence

import numpy as np

from repro.core.metrics import EngineMetrics
from repro.core.types import Query


@dataclass(frozen=True, slots=True)
class LoadReport:
    """Outcome of one load run (wall-clock, not virtual time).

    ``requests`` is the offered load; every offered request ended as exactly
    one of ``completed`` (answered fresh), ``stale_served``, ``failed``,
    ``overloaded`` or ``deadline_exceeded``. ``throughput_rps`` counts
    answered requests (fresh or stale) per wall second.
    """

    #: "closed" (a fixed number of callers, each waits for its answer) or
    #: "open" (arrivals on a fixed schedule, whatever the server does).
    mode: str
    requests: int
    completed: int
    stale_served: int
    failed: int
    overloaded: int
    deadline_exceeded: int
    served_fraction: float
    wall_seconds: float
    throughput_rps: float
    hits: int
    misses: int
    hit_rate: float
    coalesced_misses: int
    remote_calls: int
    breaker_open_rejects: int
    #: Wall latency of fresh answers; None where the driver timed none.
    p50_wall: float | None
    p99_wall: float | None
    #: Open loop: arrivals per wall second. Closed loop: concurrent callers.
    rate: float | None = None
    concurrency: int | None = None

    @property
    def outcomes(self) -> dict[str, int]:
        """Non-zero outcome counts by wire status name."""
        counts = {
            "ok": self.completed,
            "stale_hit": self.stale_served,
            "failed": self.failed,
            "overloaded": self.overloaded,
            "deadline_exceeded": self.deadline_exceeded,
        }
        return {status: count for status, count in counts.items() if count}


def load_report(
    delta: EngineMetrics,
    mode: str,
    wall_seconds: float,
    remote_calls: int = 0,
    walls: Sequence[float] = (),
    rate: float | None = None,
    concurrency: int | None = None,
) -> LoadReport:
    """The report of a run that counted ``delta`` in ``wall_seconds``."""
    answered = delta.requests + delta.stale_hits
    return LoadReport(
        mode=mode,
        requests=delta.offered,
        completed=delta.requests,
        stale_served=delta.stale_hits,
        failed=delta.failed_requests,
        overloaded=delta.overloaded,
        deadline_exceeded=delta.deadline_exceeded,
        served_fraction=delta.served_fraction,
        wall_seconds=wall_seconds,
        throughput_rps=answered / wall_seconds if wall_seconds > 0 else 0.0,
        hits=delta.hits,
        misses=delta.misses,
        hit_rate=delta.hit_rate,
        coalesced_misses=delta.coalesced_misses,
        remote_calls=remote_calls,
        breaker_open_rejects=delta.breaker_open_rejects,
        p50_wall=float(np.percentile(walls, 50)) if len(walls) else None,
        p99_wall=float(np.percentile(walls, 99)) if len(walls) else None,
        rate=rate,
        concurrency=concurrency,
    )


class LoadWindow:
    """Opens when a driver starts loading ``engine``; :meth:`report` closes
    it. Reports are deltas, so a warm engine can be measured run after run."""

    def __init__(self, engine) -> None:
        self.engine = engine
        self._before = engine.metrics.counters()
        self._remote_before = engine.remote.calls
        self._begin = time.perf_counter()

    def report(self, mode: str, **shape) -> LoadReport:
        """Everything counted since the window opened; ``shape`` is
        :func:`load_report`'s ``walls`` / ``rate`` / ``concurrency``."""
        return load_report(
            self.engine.metrics.since(self._before),
            mode,
            time.perf_counter() - self._begin,
            remote_calls=self.engine.remote.calls - self._remote_before,
            **shape,
        )


def run_serial(
    engine,
    queries: Sequence[Query],
    time_step: float = 0.0,
    start: float = 0.0,
    stop=None,
    between=None,
) -> LoadReport:
    """The baseline loop: one caller on ``engine.handle``, query *i* at
    simulated time ``start + i * time_step``. ``stop`` (anything with
    ``is_set()``) is checked before each request; ``between()``, when
    given, runs after each one (the serial tier's snapshot sampling)."""
    window = LoadWindow(engine)
    for i, query in enumerate(queries):
        if stop is not None and stop.is_set():
            break
        engine.handle(query, now=start + i * time_step)
        if between is not None:
            between()
    return window.report("closed", concurrency=1)


async def arrivals(
    count: int, rate: float, stop: asyncio.Event | None = None
) -> AsyncIterator[int]:
    """Open-loop pacing: yield ``i`` in ``range(count)`` at wall offset
    ``i / rate`` from the first, whether or not the work launched for
    earlier arrivals has completed — the generator never slows down because
    the server is struggling (the coordinated-omission trap of closed loops).

    ``stop`` ends the schedule early once set: the sleep until the next
    arrival also wakes on it, so a TERM mid-gap does not wait out the gap.
    """
    if rate <= 0:
        raise ValueError(f"rate must be > 0, got {rate}")
    begin = time.perf_counter()
    for i in range(count):
        if stop is not None and stop.is_set():
            return
        delay = (begin + i / rate) - time.perf_counter()
        if delay > 0:
            if stop is None:
                await asyncio.sleep(delay)
            else:
                try:
                    await asyncio.wait_for(stop.wait(), timeout=delay)
                    return
                except asyncio.TimeoutError:
                    pass
        yield i
