"""Counted resources for simulated processes.

These model contended capacity (GPU slots, API connections). A
:class:`Resource` hands out grants in priority order (lower number first,
FIFO within a priority).
"""

from __future__ import annotations

import heapq
import itertools
from typing import TYPE_CHECKING

from repro.sim.events import Event

if TYPE_CHECKING:  # pragma: no cover
    from repro.sim.kernel import Simulator


class Request(Event):
    """A pending claim on a :class:`Resource`.

    Yields control back to the process once capacity is granted. Use it as a
    context manager inside a process for automatic release::

        req = resource.request()
        yield req
        try:
            ...  # hold the resource
        finally:
            resource.release(req)
    """

    def __init__(self, resource: "Resource", priority: float) -> None:
        super().__init__(resource._sim_ref)
        self.resource = resource
        self.priority = priority
        self.cancelled = False

    def cancel(self) -> None:
        """Withdraw an ungranted request (e.g. the waiter timed out)."""
        if self.triggered:
            raise RuntimeError("cannot cancel a granted request; release instead")
        self.cancelled = True


class Resource:
    """A counted resource with priority admission.

    ``capacity`` concurrent holders are allowed. :meth:`request` returns a
    :class:`Request` event that succeeds when a slot is granted; the holder
    must call :meth:`release` with the same request object when done.
    """

    def __init__(self, sim: "Simulator", capacity: int = 1) -> None:
        if capacity < 1:
            raise ValueError(f"capacity must be >= 1, got {capacity}")
        self._sim_ref = sim
        self.capacity = capacity
        self._in_use = 0
        self._waiting: list[tuple[float, int, Request]] = []
        self._ticket = itertools.count()

    @property
    def in_use(self) -> int:
        """Number of currently granted slots."""
        return self._in_use

    @property
    def queue_length(self) -> int:
        """Number of ungranted, uncancelled requests."""
        return sum(1 for _, _, req in self._waiting if not req.cancelled)

    def request(self, priority: float = 0.0) -> Request:
        """Claim one slot; lower ``priority`` values are served first."""
        req = Request(self, priority)
        heapq.heappush(self._waiting, (priority, next(self._ticket), req))
        self._dispatch()
        return req

    def release(self, request: Request) -> None:
        """Return the slot held by ``request``."""
        if not request.triggered:
            raise RuntimeError("releasing a request that was never granted")
        self._in_use -= 1
        if self._in_use < 0:
            raise RuntimeError("resource released more times than granted")
        self._dispatch()

    def _dispatch(self) -> None:
        while self._waiting and self._in_use < self.capacity:
            _, _, req = heapq.heappop(self._waiting)
            if req.cancelled:
                continue
            self._in_use += 1
            req.succeed(req)

    def __repr__(self) -> str:
        return (
            f"Resource(capacity={self.capacity}, in_use={self._in_use}, "
            f"waiting={self.queue_length})"
        )
