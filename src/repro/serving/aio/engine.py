"""Asyncio serving front-end over the Asteria engine.

:class:`AsyncAsteriaEngine` is the event-loop twin of
:class:`~repro.serving.concurrent.ConcurrentEngine`: it drives the same
lookup → judge → admit path over the same cache, but remote waits are
``await``-points instead of blocked threads, so one OS thread sustains
thousands of in-flight fetches. On top of the shared path it adds the three
controls a production gateway needs:

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

**Hedging** — optionally, a miss whose fetch is still pending after the
``hedge_percentile``-th percentile of observed fetch latencies launches a
second, independent fetch and serves whichever completes first (the
tail-latency trick from "The Tail at Scale"). Hedges are counted in
``metrics.hedged_fetches`` / ``metrics.hedge_wins``.

Single-threaded by design: cache and metrics mutations happen between await
points, so no locks are taken anywhere. The cache therefore does *not* need
to be thread-safe — a plain :class:`~repro.core.cache.AsteriaCache` works —
but the factory builds the same :class:`ShardedAsteriaCache` shape as the
thread-pool stack so the two are directly comparable.
"""

from __future__ import annotations

import asyncio
import dataclasses
import time
from dataclasses import dataclass
from typing import Generator

import numpy as np

from repro.core.engine import AsteriaEngine
from repro.core.flow import (
    Admit,
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
        The wrapped engine. Prefetching and recalibration must be disabled —
        both mutate engine-global state on the request path and belong to
        the sequential and simulated modes (same rule as the thread pool).
    remote:
        The awaitable remote service; built over ``engine.remote`` with
        ``io_pause_scale=0`` when omitted.
    singleflight:
        The await-based miss-coalescing layer (private by default).
    max_inflight:
        Admission-queue depth: requests in the serving section beyond this
        are rejected with an ``overloaded`` outcome.
    default_deadline:
        Per-request wall-clock deadline in seconds applied when ``serve`` is
        not given an explicit one; None means no deadline.
    follower_timeout:
        Bound on a coalesced follower's wait behind a leader before it falls
        back to a private fetch (see :class:`AsyncSingleFlight`).
    hedge_percentile:
        When set (0 < p <= 100), a pending fetch older than this percentile
        of observed fetch latencies triggers a hedged second fetch. Needs
        ``io_pause_scale > 0`` to be meaningful (with analytic fetches there
        is no wall-clock tail to cut).
    hedge_min_samples:
        Observed-fetch count required before hedging activates.
    batch_window:
        Accumulation window (wall seconds) for :meth:`serve_batched`. The
        first enqueued request arms a flush timer; everything that arrives
        within the window is served with *one* shared embed-batch + ANN
        search-batch pass (the same stage-1 sharing as the sequential
        engine's ``handle_batch``). 0 (default) still batches everything
        enqueued in the same event-loop tick — e.g. an ``asyncio.gather``
        over ``serve_batched`` calls — with no added latency.
    batch_max:
        Flush immediately once this many requests are pending (bounds both
        latency and the stage-1 batch size).
    """

    #: Observed-latency reservoir cap (recent fetches dominate the estimate).
    _HEDGE_WINDOW = 512

    def __init__(
        self,
        engine: AsteriaEngine,
        remote: AsyncRemoteService | None = None,
        singleflight: AsyncSingleFlight | None = None,
        max_inflight: int = 256,
        default_deadline: float | None = None,
        follower_timeout: float | None = None,
        hedge_percentile: float | None = None,
        hedge_min_samples: int = 20,
        batch_window: float = 0.0,
        batch_max: int = 16,
    ) -> None:
        if max_inflight < 1:
            raise ValueError(f"max_inflight must be >= 1, got {max_inflight}")
        if batch_window < 0:
            raise ValueError(f"batch_window must be >= 0, got {batch_window}")
        if batch_max < 1:
            raise ValueError(f"batch_max must be >= 1, got {batch_max}")
        if default_deadline is not None and default_deadline <= 0:
            raise ValueError(f"default_deadline must be > 0, got {default_deadline}")
        if follower_timeout is not None and follower_timeout <= 0:
            raise ValueError(f"follower_timeout must be > 0, got {follower_timeout}")
        if hedge_percentile is not None and not 0 < hedge_percentile <= 100:
            raise ValueError(
                f"hedge_percentile must be in (0, 100], got {hedge_percentile}"
            )
        if hedge_min_samples < 1:
            raise ValueError(f"hedge_min_samples must be >= 1, got {hedge_min_samples}")
        if engine.prefetcher is not None or engine.recalibrator is not None:
            raise ValueError(
                "AsyncAsteriaEngine requires prefetching and recalibration "
                "disabled (both mutate engine-global state on the request "
                "path); run those studies through the sequential engine"
            )
        self.engine = engine
        self.remote = (
            remote if remote is not None else AsyncRemoteService(engine.remote)
        )
        self.singleflight = (
            singleflight if singleflight is not None else AsyncSingleFlight()
        )
        self.max_inflight = max_inflight
        self.default_deadline = default_deadline
        self.follower_timeout = follower_timeout
        self.hedge_percentile = hedge_percentile
        self.hedge_min_samples = hedge_min_samples
        self.batch_window = batch_window
        self.batch_max = batch_max
        self._inflight = 0
        self._latency_samples: list[float] = []
        #: Background stale-while-revalidate flights (gathered by drain()).
        self._refresh_tasks: set[asyncio.Task] = set()
        #: Micro-batch accumulator: (query, now, future) triples awaiting the
        #: next shared stage-1 flush.
        self._batch_pending: list[tuple[Query, float, asyncio.Future]] = []
        self._batch_timer: asyncio.TimerHandle | None = None

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
        return await self._serve_outer(query, now, deadline)

    async def serve_batched(
        self, query: Query, now: float = 0.0, deadline: float | None = None
    ) -> AsyncOutcome:
        """Like :meth:`serve`, but stage 1 is shared across a micro-batch.

        The request joins the pending accumulation window; when the window
        flushes (``batch_window`` elapsed, or ``batch_max`` requests
        pending), every cacheable request in it gets its raw ANN hits from
        one shared embed-batch + search-batch pass, then completes through
        exactly the scalar flow — judging, single-flight misses,
        degradation, metrics — in its own task context. Deadlines cover the
        window wait; backpressure is applied at enqueue time.

        Decision parity with the sequential engine's ``handle_batch`` holds
        per window: a request whose stage-1 snapshot went stale (the cache
        mutated after the flush) falls back to a fresh scalar lookup, the
        same invalidation rule the sync batch path uses.
        """
        return await self._serve_outer(
            query, now, deadline, serve=self._serve_enqueued
        )

    async def _serve_outer(
        self, query: Query, now: float, deadline: float | None, serve=None
    ) -> AsyncOutcome:
        if serve is None:
            serve = self._serve
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
                    response = await serve(query, now)
                else:
                    async with asyncio.timeout(limit):
                        response = await serve(query, now)
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

    async def _serve_enqueued(self, query: Query, now: float) -> EngineResponse:
        """Join the pending micro-batch, await its flush, then complete
        through the scalar path with the flush's prepared stage-1 hits."""
        loop = asyncio.get_running_loop()
        future: asyncio.Future = loop.create_future()
        self._batch_pending.append((query, now, future))
        if len(self._batch_pending) >= self.batch_max:
            self._flush_batch()
        elif self._batch_timer is None:
            self._batch_timer = loop.call_later(self.batch_window, self._flush_batch)
        return await self._serve(query, now, prepared=await future)

    def _flush_batch(self) -> None:
        """Run the shared stage-1 pass for every pending request and wake
        them with their prepared hits.

        Synchronous (no awaits), so the expiry purge, the embed+ANN batch,
        and the mutation stamp form one atomic snapshot — the sequential
        ``handle_batch`` preamble itself. Requests then resume in enqueue
        order and validate the stamp before trusting their hits.
        """
        if self._batch_timer is not None:
            self._batch_timer.cancel()
            self._batch_timer = None
        pending = self._batch_pending
        if not pending:
            return
        self._batch_pending = []
        prepared = self.engine._prepare_batch(
            [query for query, _, _ in pending], max(now for _, now, _ in pending)
        )
        for (_, _, future), ready in zip(pending, prepared):
            # A deadline may have cancelled the waiter while it queued.
            if not future.done():
                future.set_result(ready)

    async def _serve(
        self, query: Query, now: float, prepared=None
    ) -> EngineResponse:
        """One request through the flow; ``prepared`` is a flushed
        micro-batch's ``(stage-1 hits, mutation stamp)`` for this query."""
        flow = request_flow(self.engine, query, now, batched=prepared is not None)
        return await self._run(flow, query, now, prepared)

    async def _run(
        self,
        flow: Generator,
        query: Query | None = None,
        now: float = 0.0,
        prepared=None,
    ):
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
                        sine_result = await self._sine_lookup(query, now, prepared)
                        result, _ = self.engine._lookup_record(query, sine_result)
                    elif kind is Fetch:
                        result = await self._fetch(effect.query, effect.at)
                    elif kind is Sleep:
                        if self.remote.io_pause_scale > 0:
                            await asyncio.sleep(
                                effect.seconds * self.remote.io_pause_scale
                            )
                    elif kind is Admit:
                        await self._admit(*effect)
                    elif kind is Flight:
                        body = effect.body
                        result = await self.singleflight.run(
                            effect.key,
                            lambda: self._run(body),
                            timeout=self.follower_timeout,
                        )
                    else:  # Spawn: a background task, gathered by drain()
                        task = asyncio.ensure_future(self._run(effect.flow))
                        self._refresh_tasks.add(task)
                        task.add_done_callback(self._refresh_tasks.discard)
                except BaseException as exc:
                    effect = flow.throw(exc)
                else:
                    effect = flow.send(result)
        except StopIteration as stop:
            return stop.value

    async def _sine_lookup(self, query: Query, now: float, prepared=None):
        """Stage 1+2 retrieval for one cacheable request — the engine's
        *cache access point*: subclasses that keep the cache elsewhere (the
        multi-process tier's shard workers) override this and
        :meth:`_admit`, and inherit the entire flow unchanged."""
        return self.engine._sine_lookup(query, now, prepared)

    async def _admit(self, query: Query, fetch: FetchResult, arrival: float) -> None:
        """Insert one fetched result; the second cache access point."""
        self.engine.cache.insert(query, fetch, arrival)

    async def _fetch(self, query: Query, start: float) -> FetchResult:
        threshold = self._hedge_after()
        if threshold is None:
            fetch = await self.remote.fetch(query, start)
            self._observe(fetch.latency)
            return fetch
        primary = asyncio.ensure_future(self.remote.fetch(query, start))
        done, _ = await asyncio.wait({primary}, timeout=threshold)
        if primary in done:
            fetch = primary.result()
            self._observe(fetch.latency)
            return fetch
        # Primary is past the latency percentile: hedge with a second,
        # independent fetch and take whichever lands first. The loser's
        # request already went out (cost and call counters stand), exactly
        # like a real hedged RPC.
        self.metrics.hedged_fetches += 1
        hedge_delay_sim = threshold / self.remote.io_pause_scale
        backup = asyncio.ensure_future(
            self.remote.fetch(query, start + hedge_delay_sim)
        )
        done, pending = await asyncio.wait(
            {primary, backup}, return_when=asyncio.FIRST_COMPLETED
        )
        winner = primary if primary in done else backup
        for task in pending:
            task.cancel()
        if pending:
            await asyncio.gather(*pending, return_exceptions=True)
        fetch = winner.result()
        self._observe(fetch.latency)
        if winner is backup:
            self.metrics.hedge_wins += 1
            # The caller experienced the hedge delay plus the backup's own
            # fetch time; report that end-to-end simulated latency and mark
            # the result hedged.
            fetch = dataclasses.replace(
                fetch, latency=hedge_delay_sim + fetch.latency, hedged=True
            )
        return fetch

    def _hedge_after(self) -> float | None:
        """Wall seconds to wait before hedging, or None when disabled."""
        if (
            self.hedge_percentile is None
            or self.remote.io_pause_scale <= 0
            or len(self._latency_samples) < self.hedge_min_samples
        ):
            return None
        simulated = float(
            np.percentile(self._latency_samples, self.hedge_percentile)
        )
        threshold = simulated * self.remote.io_pause_scale
        return threshold if threshold > 0 else None

    def _observe(self, latency: float) -> None:
        self._latency_samples.append(latency)
        if len(self._latency_samples) > self._HEDGE_WINDOW:
            del self._latency_samples[: -self._HEDGE_WINDOW]

    # -- lifecycle ----------------------------------------------------------------
    async def drain(self) -> None:
        """Wait for background single-flight fetches and stale-refresh tasks
        to settle (admissions land in the cache); call before tearing down
        the event loop. Any un-flushed micro-batch is flushed first so no
        ``serve_batched`` waiter is left pending."""
        self._flush_batch()
        while self._refresh_tasks:
            await asyncio.gather(
                *list(self._refresh_tasks), return_exceptions=True
            )
        await self.singleflight.drain()

    def __repr__(self) -> str:
        return (
            f"AsyncAsteriaEngine(name={self.name!r}, "
            f"max_inflight={self.max_inflight}, inflight={self._inflight}, "
            f"deadline={self.default_deadline}, "
            f"singleflight={self.singleflight!r})"
        )
