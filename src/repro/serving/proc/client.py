"""Socket client for the serve front door, plus the open-loop driver that
pushes real requests through a real socket.

:class:`ProcClient` pipelines requests over one connection (request ids map
replies back to waiter futures — same scheme as the shard protocol), so an
open-loop generator can keep hundreds of requests in flight without opening
hundreds of sockets.
"""

from __future__ import annotations

import asyncio
import time
from collections import Counter

from repro.core.metrics import EngineMetrics
from repro.core.types import Query
from repro.serving.load import LoadReport, arrivals, load_report
from repro.serving.proc import wire
from repro.serving.proc.protocol import PickleCodec, read_frame, write_frame


class ProcClientError(RuntimeError):
    """The server reported a failure for one request, or the link dropped."""


class ProcTransportError(ProcClientError):
    """The link itself failed (closed writer, reset, or lost mid-flight).

    Distinct from a server-reported op failure: the request never got an
    answer, so it is safe to retry on a fresh connection."""


class ProcClient:
    """One pipelined connection to a :class:`~repro.serving.proc.server.ProcServer`.

    A client built via :meth:`connect` remembers its endpoint and retries a
    call **once** over a fresh connection when the link drops mid-flight
    (front-door restart, idle-timeout close) — server-reported failures are
    never retried. ``reconnects`` counts successful re-dials.
    """

    def __init__(
        self,
        reader: asyncio.StreamReader,
        writer: asyncio.StreamWriter,
        tracer=None,
    ) -> None:
        self.codec = PickleCodec()
        #: Optional client-side tracer: sampled ``serve`` calls open a local
        #: root span and ship its identity with the request, so the server's
        #: router/worker spans land in this client's trace.
        self.tracer = tracer
        self._reader = reader
        self._writer = writer
        self._next_id = 0
        self._pending: dict[int, asyncio.Future] = {}
        self._reader_task = asyncio.ensure_future(self._read_loop())
        self.reconnects = 0
        self._remote: "tuple[str, int] | None" = None
        self._connect_timeout = 10.0
        self._reconnect_lock = asyncio.Lock()

    @classmethod
    async def connect(
        cls,
        host: str,
        port: int,
        timeout: float = 10.0,
        tracer=None,
    ) -> "ProcClient":
        reader, writer = await asyncio.wait_for(
            asyncio.open_connection(host, port), timeout
        )
        client = cls(reader, writer, tracer=tracer)
        client._remote = (host, port)
        client._connect_timeout = timeout
        return client

    async def call(self, op: str, body=None):
        try:
            return await self._call_once(op, body)
        except (ProcTransportError, BrokenPipeError, ConnectionResetError) as exc:
            if self._remote is None:
                raise  # endpoint unknown (built from raw streams): no retry
            try:
                await self._reconnect()
            except (OSError, asyncio.TimeoutError) as redial:
                raise ProcTransportError(f"reconnect failed ({redial})") from exc
            return await self._call_once(op, body)

    async def _call_once(self, op: str, body=None):
        # A finished read loop means nobody will ever resolve the waiter,
        # even if the writer still accepts bytes (half-closed socket).
        if self._writer.is_closing() or self._reader_task.done():
            raise ProcTransportError("connection closed")
        request_id = self._next_id
        self._next_id += 1
        future = asyncio.get_running_loop().create_future()
        self._pending[request_id] = future
        write_frame(self._writer, self.codec.dumps([request_id, op, body]))
        return await future

    async def _reconnect(self) -> None:
        """Re-dial the remembered endpoint (serialized: concurrent callers
        that lost the same connection share one new socket)."""
        async with self._reconnect_lock:
            if not self._writer.is_closing() and not self._reader_task.done():
                return  # a sibling waiter already reconnected
            host, port = self._remote
            self._reader_task.cancel()
            await asyncio.gather(self._reader_task, return_exceptions=True)
            self._writer.close()
            try:
                await self._writer.wait_closed()
            except Exception:  # noqa: BLE001 - old server may already be gone
                pass
            reader, writer = await asyncio.wait_for(
                asyncio.open_connection(host, port), self._connect_timeout
            )
            self._reader = reader
            self._writer = writer
            self._reader_task = asyncio.ensure_future(self._read_loop())
            self.reconnects += 1

    async def serve(
        self, query: Query, now: float = 0.0, deadline: float | None = None
    ) -> dict:
        """One request; returns the server's outcome payload (status/result/
        latency/wall_latency). With a tracer attached, sampled calls open a
        client-side root span and ship ``[trace_id, span_id]`` so the
        server's spans join this trace; untraced calls send the exact
        pre-tracing three-element body."""
        body = [wire.query_to_wire(query), now, deadline]
        tracer = self.tracer
        if tracer is None or not tracer.sample():
            return await self.call("serve", body)
        with tracer.request("client_request", tool=query.tool) as span:
            body.append([span.trace_id, span.span_id])
            outcome = await self.call("serve", body)
            span.set(outcome=outcome.get("status"))
            return outcome

    async def health(self) -> dict:
        return await self.call("health")

    async def metrics(self) -> dict:
        return await self.call("metrics")

    async def ping(self) -> str:
        return await self.call("ping")

    async def _read_loop(self) -> None:
        error: BaseException | None = None
        try:
            while True:
                payload = await read_frame(self._reader)
                if payload is None:
                    break
                request_id, ok, result = self.codec.loads(payload)
                future = self._pending.pop(request_id, None)
                if future is None or future.done():
                    continue
                if ok:
                    future.set_result(result)
                else:
                    future.set_exception(ProcClientError(str(result)))
        except asyncio.CancelledError:
            raise
        except Exception as exc:  # noqa: BLE001 - fail pending below
            error = exc
        finally:
            # One shared exception instance would cross-contaminate traceback
            # context between waiters — build one per pending future.
            for future in self._pending.values():
                if not future.done():
                    future.set_exception(
                        ProcTransportError(
                            "connection lost" + (f" ({error})" if error else "")
                        )
                    )
            self._pending.clear()

    async def aclose(self) -> None:
        self._reader_task.cancel()
        await asyncio.gather(self._reader_task, return_exceptions=True)
        self._writer.close()
        try:
            await self._writer.wait_closed()
        except Exception:  # noqa: BLE001 - server may already be gone
            pass


#: Outcome status on the wire -> the EngineMetrics counter it is.
_STATUS_COUNTER = {
    "ok": "requests",
    "stale_hit": "stale_hits",
    "failed": "failed_requests",
    "overloaded": "overloaded",
    "deadline_exceeded": "deadline_exceeded",
}


async def run_open_loop_socket(
    client: ProcClient,
    queries: list[Query],
    rate: float,
    time_step: float = 0.0,
    deadline: float | None = None,
    stop: asyncio.Event | None = None,
) -> LoadReport:
    """Open-loop driver over a socket: request ``i`` launches at wall offset
    ``i / rate`` regardless of completions (the arrival discipline of
    :func:`repro.serving.load.arrivals`) and all replies are gathered.

    The client sees outcomes, not the server's cache: the report's
    outcome counts, ``served_fraction`` and throughput are real, its
    hit/miss fields are zero (ask the ``metrics`` op). A request the link
    lost for good counts as ``failed``.
    """
    counts: Counter = Counter()

    async def one(index: int) -> None:
        try:
            outcome = await client.serve(
                queries[index], now=index * time_step, deadline=deadline
            )
            counts[_STATUS_COUNTER[outcome["status"]]] += 1
        except ProcClientError:
            counts["failed_requests"] += 1

    begin = time.perf_counter()
    tasks = [
        asyncio.ensure_future(one(index))
        async for index in arrivals(len(queries), rate, stop)
    ]
    await asyncio.gather(*tasks)
    wall = time.perf_counter() - begin
    return load_report(EngineMetrics(**counts), "open", wall, rate=rate)
