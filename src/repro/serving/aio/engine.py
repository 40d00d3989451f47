"""Asyncio serving front-end over the Asteria engine.

:class:`AsyncAsteriaEngine` is the in-process concurrent driver of the
request flow (:mod:`repro.core.flow`): it drives the sync engine's
lookup → judge → admit path over the same cache, but remote waits are
``await``-points, so one OS thread sustains thousands of in-flight fetches.
On top of the shared path it adds the two controls a production gateway
needs:

**Backpressure** — at most ``max_inflight`` requests may be in the serving
section at once; a request arriving beyond that depth is rejected
immediately with an ``overloaded`` outcome (counted in
``metrics.overloaded``) rather than queued without bound. Rejected requests
touch neither the cache nor the hit/miss counters.

**Deadlines** — each request may carry a deadline (seconds of wall clock,
``default_deadline`` otherwise). The miss path runs under
``asyncio.timeout``: on expiry the caller gets a ``deadline_exceeded``
outcome instead of hanging, while the underlying single-flight fetch keeps
running in the background and still admits its result — the deadline
degrades the *response*, never the cache.

Single-threaded by design: cache and metrics mutations happen between await
points, so the engine takes no locks. It serves one
:class:`~repro.core.cache.AsteriaCache`, built as the sync tier builds it;
the proc tier's workers are the only shards.
"""

from __future__ import annotations

import asyncio
import time
from dataclasses import dataclass
from typing import Generator

from repro.core.engine import AsteriaEngine
from repro.core.flow import (
    Admit,
    Covered,
    EngineResponse,
    Fetch,
    Flight,
    Lookup,
    Sleep,
    request_flow,
)
from repro.core.metrics import EngineMetrics
from repro.core.types import FetchResult, Query
from repro.serving.aio.remote import AsyncRemoteService
from repro.serving.aio.singleflight import AsyncSingleFlight

#: Outcome statuses (the response carries payload when "ok" or "stale_hit").
STATUS_OK = "ok"
STATUS_OVERLOADED = "overloaded"
STATUS_DEADLINE = "deadline_exceeded"
STATUS_STALE = "stale_hit"
STATUS_FAILED = "failed"


@dataclass(frozen=True, slots=True)
class AsyncOutcome:
    """What one ``serve`` call resolved to.

    ``response`` is populated when ``status`` is ``"ok"`` or ``"stale_hit"``
    (a stale serve still answers the caller — with the last-known-good
    payload); the other degraded outcomes carry no payload.
    ``wall_latency`` is real seconds spent in ``serve`` (for an overload
    rejection, effectively zero).
    """

    status: str
    response: EngineResponse | None = None
    wall_latency: float = 0.0

    @property
    def ok(self) -> bool:
        return self.status == STATUS_OK

    @property
    def served(self) -> bool:
        """Did the caller get *some* payload (fresh or stale)?"""
        return self.status in (STATUS_OK, STATUS_STALE)


class AsyncAsteriaEngine:
    """Asyncio front-end over an :class:`AsteriaEngine`.

    Parameters
    ----------
    engine:
        The wrapped engine. Its recalibrator and prefetcher run in the
        request flow as in every driver: recalibration between a request's
        arrival and its lookup, each prefetch as a background task.
    remote:
        The awaitable remote service; built over ``engine.remote`` with
        ``io_pause_scale=0`` when omitted.
    max_inflight:
        Admission-queue depth: requests in the serving section beyond this
        are rejected with an ``overloaded`` outcome.
    default_deadline:
        Per-request wall-clock deadline in seconds applied when ``serve`` is
        not given an explicit one; None means no deadline.
    """

    def __init__(
        self,
        engine: AsteriaEngine,
        remote: AsyncRemoteService | None = None,
        max_inflight: int = 256,
        default_deadline: float | None = None,
    ) -> None:
        if max_inflight < 1:
            raise ValueError(f"max_inflight must be >= 1, got {max_inflight}")
        if default_deadline is not None and default_deadline <= 0:
            raise ValueError(f"default_deadline must be > 0, got {default_deadline}")
        self.engine = engine
        self.remote = (
            remote if remote is not None else AsyncRemoteService(engine.remote)
        )
        #: The await-based miss-coalescing layer.
        self.singleflight = AsyncSingleFlight()
        self.max_inflight = max_inflight
        self.default_deadline = default_deadline
        self._inflight = 0
        #: Spawned stale refreshes and prefetches (gathered by drain()).
        self._spawned: set[asyncio.Task] = set()

    # -- KnowledgeEngine-compatible surface ------------------------------------
    @property
    def name(self) -> str:
        return self.engine.name

    @property
    def metrics(self) -> EngineMetrics:
        return self.engine.metrics

    @property
    def cache(self):
        return self.engine.cache

    @property
    def inflight(self) -> int:
        """Requests currently inside the serving section."""
        return self._inflight

    def set_tracer(self, tracer) -> None:
        """Attach (or detach with None) a stage tracer; the span context
        lives in a contextvar, so it survives ``await`` points and is
        inherited by single-flight leader tasks spawned under a request."""
        self.engine.set_tracer(tracer)

    # -- the request path --------------------------------------------------------
    async def serve(
        self, query: Query, now: float = 0.0, deadline: float | None = None
    ) -> AsyncOutcome:
        """Resolve one query; always returns an outcome, never hangs.

        ``now`` is the simulated clock (drives TTLs and latency accounting,
        exactly as in the sequential engine); ``deadline`` is *wall* seconds
        and overrides ``default_deadline`` for this request.
        """
        begin = time.perf_counter()
        if self._inflight >= self.max_inflight:
            self.metrics.overloaded += 1
            return AsyncOutcome(
                STATUS_OVERLOADED, wall_latency=time.perf_counter() - begin
            )
        self._inflight += 1
        try:
            limit = deadline if deadline is not None else self.default_deadline
            try:
                if limit is None:
                    response = await self._serve(query, now)
                else:
                    async with asyncio.timeout(limit):
                        response = await self._serve(query, now)
            except TimeoutError:
                self.metrics.deadline_exceeded += 1
                return AsyncOutcome(
                    STATUS_DEADLINE, wall_latency=time.perf_counter() - begin
                )
            wall = time.perf_counter() - begin
            if response.degraded == "stale_hit":
                return AsyncOutcome(STATUS_STALE, response, wall_latency=wall)
            if response.degraded == "failed":
                return AsyncOutcome(STATUS_FAILED, wall_latency=wall)
            return AsyncOutcome(STATUS_OK, response, wall_latency=wall)
        finally:
            self._inflight -= 1

    async def _serve(self, query: Query, now: float) -> EngineResponse:
        """One request through the flow."""
        return await self._run(request_flow(self.engine, query, now), query, now)

    async def _run(self, flow: Generator, query: Query | None = None, now: float = 0.0):
        """The event-loop driver of :mod:`repro.core.flow`.

        A flight body runs as its own task inside the single-flight layer
        (the task snapshots the spawning request's contextvars, so its spans
        parent under that request's root even after every caller moved on);
        a deadline that cancels the caller is thrown into its flow, while
        the flight itself keeps running and still admits.
        """
        try:
            effect = flow.send(None)
            while True:
                result = None
                try:
                    kind = type(effect)
                    if kind is Lookup:
                        sine_result = await self._sine_lookup(query, now)
                        result = self.engine._lookup_record(query, sine_result)
                    elif kind is Fetch:
                        result = await self.remote.fetch(effect.query, effect.at)
                    elif kind is Sleep:
                        if self.remote.io_pause_scale > 0:
                            await asyncio.sleep(
                                effect.seconds * self.remote.io_pause_scale
                            )
                    elif kind is Admit:
                        await self._admit(*effect)
                    elif kind is Covered:
                        result = await self._covered(effect.query)
                    elif kind is Flight:
                        body = effect.body
                        result = await self.singleflight.run(
                            effect.key, lambda: self._run(body)
                        )
                    else:  # Spawn: a background task, gathered by drain()
                        task = asyncio.ensure_future(self._run(effect.flow))
                        self._spawned.add(task)
                        task.add_done_callback(self._spawned.discard)
                except BaseException as exc:
                    effect = flow.throw(exc)
                else:
                    effect = flow.send(result)
        except StopIteration as stop:
            return stop.value

    async def _sine_lookup(self, query: Query, now: float):
        """Stage 1+2 retrieval for one cacheable request — the engine's
        *cache access point*: subclasses that keep the cache elsewhere (the
        multi-process tier's shard workers) override this, :meth:`_admit`
        and :meth:`_covered`, and inherit the entire flow unchanged."""
        return self.engine._sine_lookup(query, now)

    async def _admit(
        self, query: Query, fetch: FetchResult, arrival: float, prefetched=False
    ) -> None:
        """Insert one fetched result; the second cache access point."""
        self.engine.cache.insert(query, fetch, arrival, prefetched)

    async def _covered(self, query: Query) -> bool:
        """The prefetch guard's membership probe; the third access point."""
        return self.engine.cache.contains_semantic(query)

    # -- lifecycle ----------------------------------------------------------------
    async def drain(self) -> None:
        """Wait for background single-flight fetches, stale refreshes and
        prefetches to settle (admissions land in the cache); call before
        tearing down the event loop."""
        while self._spawned:
            await asyncio.gather(*list(self._spawned), return_exceptions=True)
        await self.singleflight.drain()

    def __repr__(self) -> str:
        return (
            f"AsyncAsteriaEngine(name={self.name!r}, "
            f"max_inflight={self.max_inflight}, inflight={self._inflight}, "
            f"deadline={self.default_deadline}, "
            f"singleflight={self.singleflight!r})"
        )
