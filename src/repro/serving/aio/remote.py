"""Awaitable front-end over the analytic remote data service.

:class:`AsyncRemoteService` keeps the existing
:class:`~repro.network.remote.RemoteDataService` as the single source of
truth for latency draws, throttling plans, fees, and resolver output, and
replaces the *wall-clock* side of a fetch with ``await asyncio.sleep`` —
the event loop parks the coroutine while the request is "on the wire", so
thousands of fetches overlap on one thread without a blocked thread each.

Because everything here runs on one event loop, no locks are needed around
the service's sequential RNG and counters: ``fetch_at`` is synchronous and
atomic between await points.
"""

from __future__ import annotations

import asyncio

from repro.core.types import FetchResult, Query
from repro.network.remote import RemoteDataService, RemoteFetchError


class AsyncRemoteService:
    """Single-loop awaitable wrapper over a :class:`RemoteDataService`.

    Parameters
    ----------
    service:
        The wrapped analytic service (latency model, rate limiter, fees).
    io_pause_scale:
        Real seconds slept per simulated remote-latency second (the proc
        router's fetches use the same knob). 0 keeps fetches purely analytic
        (the coroutine still yields once so concurrent fetches interleave).

    Not thread-safe: one instance belongs to one event loop.
    """

    def __init__(
        self, service: RemoteDataService, io_pause_scale: float = 0.0
    ) -> None:
        if io_pause_scale < 0:
            raise ValueError(f"io_pause_scale must be >= 0, got {io_pause_scale}")
        self.service = service
        self.io_pause_scale = io_pause_scale
        #: Fetches currently awaiting their simulated wire time.
        self.inflight = 0
        #: High-water mark of concurrently in-flight fetches.
        self.max_inflight = 0

    @property
    def calls(self) -> int:
        return self.service.calls

    async def fetch(self, query: Query, start: float = 0.0) -> FetchResult:
        """One remote fetch starting at simulated time ``start``.

        The analytic plan (throttle waits, retries, service time, fee) is
        computed up front by the wrapped service; the coroutine then awaits
        the scaled wall-clock pause standing in for the network round-trip.
        A failing fetch (injected fault, exhausted throttle retries) burns
        its scaled wasted time on the wall clock too, then re-raises.
        """
        try:
            fetch = self.service.fetch_at(query, start)
        except RemoteFetchError as exc:
            if self.io_pause_scale > 0 and exc.latency > 0:
                await asyncio.sleep(exc.latency * self.io_pause_scale)
            else:
                await asyncio.sleep(0)
            raise
        self.inflight += 1
        self.max_inflight = max(self.max_inflight, self.inflight)
        try:
            if self.io_pause_scale > 0 and fetch.latency > 0:
                await asyncio.sleep(fetch.latency * self.io_pause_scale)
            else:
                # Yield once anyway: overlapping fetches stay interleaved and
                # cancellation (deadlines) has a point to land.
                await asyncio.sleep(0)
        finally:
            self.inflight -= 1
        return fetch

    def __repr__(self) -> str:
        return (
            f"AsyncRemoteService({self.service.name!r}, "
            f"io_pause_scale={self.io_pause_scale}, inflight={self.inflight})"
        )
