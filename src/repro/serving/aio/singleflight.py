"""Await-based single-flight suppression of duplicate in-flight work.

The serving tiers' form of the simulator's miss coalescing
(``AsteriaConfig.coalesce_misses``): the first task to miss on a key
becomes the *leader* and executes the fetch; tasks that miss on the same
key while it is in flight become *followers* and ``await`` the leader's
outcome. The pattern is Go's ``golang.org/x/sync/singleflight``, with one
addition driven by cancellation: the leader's coroutine runs as its **own
task**, and every caller — leader included — awaits it through
:func:`asyncio.shield`. A caller whose per-request deadline fires is
cancelled *at the shield*, not inside the fetch, so the flight keeps running
in the background, completes, and (in the engine's case) still admits its
result into the cache. One impatient caller can never poison the flight for
the others.
"""

from __future__ import annotations

import asyncio
from typing import Awaitable, Callable, Hashable, TypeVar

T = TypeVar("T")


def _retrieve(task: "asyncio.Task") -> None:
    """Mark a flight's exception as retrieved (all awaiters may have been
    cancelled by their deadlines, and an unobserved exception would log)."""
    if not task.cancelled():
        task.exception()


class AsyncSingleFlight:
    """Per-key duplicate-call suppression across asyncio tasks.

    ``await run(key, fn)`` returns ``(result, shared)``: ``shared`` is False
    for the leader whose flight actually executed ``fn()`` and True for
    followers that reused its in-flight result. Calls arriving after a
    flight completes start a fresh one — suppression applies only to overlap
    in time, so a retry after a failed fetch is never poisoned by stale
    results. Not thread-safe: one instance belongs to one event loop.
    """

    def __init__(self) -> None:
        self._inflight: dict[Hashable, asyncio.Task] = {}
        #: Flights led (each one real unit of work).
        self.leaders = 0
        #: Calls served by someone else's flight (work saved).
        self.shared = 0

    async def run(
        self, key: Hashable, fn: Callable[[], Awaitable[T]]
    ) -> tuple[T, bool]:
        """Execute ``fn`` once per concurrent ``key``; see class docstring."""
        task = self._inflight.get(key)
        if task is None:
            self.leaders += 1
            task = asyncio.ensure_future(fn())
            task.add_done_callback(_retrieve)
            task.add_done_callback(lambda _t: self._inflight.pop(key, None))
            self._inflight[key] = task
            return await asyncio.shield(task), False
        self.shared += 1
        return await asyncio.shield(task), True

    def inflight(self) -> int:
        """Number of keys currently being fetched."""
        return len(self._inflight)

    async def drain(self) -> None:
        """Wait for every in-flight flight to settle (exceptions swallowed —
        each flight's own awaiters observe them). Call before tearing down
        the loop so background admissions land and no tasks are destroyed
        pending."""
        while self._inflight:
            await asyncio.gather(
                *list(self._inflight.values()), return_exceptions=True
            )

    def __repr__(self) -> str:
        return f"AsyncSingleFlight(leaders={self.leaders}, shared={self.shared})"
