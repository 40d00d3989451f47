"""The TCP front door: ``python -m repro serve`` lives here.

:class:`ProcServer` accepts client connections on a real socket and serves
them through a :class:`~repro.serving.proc.engine.ProcAsteriaEngine`. The
client protocol is the same length-prefixed framing as the worker protocol
(one codebase for both sides of the router), with request pipelining per
connection:

* request: ``[request_id, op, body]``
* reply:   ``[request_id, ok, payload]``

Ops: ``serve`` (``[query_wire, now, deadline]`` with an optional fourth
``[trace_id, parent_span_id]`` element — the payload mirrors an
``AsyncOutcome``, and a traced request's router/worker spans join the
client's trace), ``health`` (includes an ``slo`` burn-rate summary when an
:class:`~repro.obs.slo.SLOEngine` is attached), ``metrics``, ``ping``.

Graceful shutdown: SIGTERM/SIGINT (or :meth:`request_stop`) stops accepting
connections, lets every in-flight request finish, drains the engine
(background refreshes, single-flight leaders), shuts the worker pool down
cleanly, and returns — so a supervisor's TERM never loses work that was
already admitted.
"""

from __future__ import annotations

import asyncio
import signal

from repro.serving.proc import wire
from repro.serving.proc.engine import ProcAsteriaEngine
from repro.serving.proc.protocol import FrameError, PickleCodec, read_frame, write_frame


class ProcServer:
    """Socket front-end over a :class:`ProcAsteriaEngine`."""

    def __init__(
        self,
        engine: ProcAsteriaEngine,
        host: str = "127.0.0.1",
        port: int = 0,
        slo=None,
    ) -> None:
        self.engine = engine
        self.host = host
        self.port = port
        self.codec = PickleCodec()
        #: Optional :class:`~repro.obs.slo.SLOEngine`; when set, ``health``
        #: replies carry its burn-rate summary (``python -m repro serve
        #: --slo`` wires it up).
        self.slo = slo
        self._server: asyncio.base_events.Server | None = None
        #: Open connections: handler task -> its (reader, writer).
        self._connections: dict[asyncio.Task, tuple] = {}
        self._stop = asyncio.Event()
        self.requests_served = 0

    async def start(self) -> None:
        """Launch workers (if needed), attach, and start listening
        (idempotent)."""
        if self._server is not None:
            return
        await self.engine.pool.attach()
        self._server = await asyncio.start_server(
            self._handle_connection, self.host, self.port
        )
        self.port = self._server.sockets[0].getsockname()[1]

    def request_stop(self) -> None:
        """Begin a graceful shutdown (signal-handler safe, idempotent)."""
        self._stop.set()
        # End every connection's read side from ours: its handler sees EOF
        # once the frames already received are consumed, and the write side
        # stays open for the replies still owed. Paused first, because a
        # StreamReader refuses data after EOF.
        for reader, writer in self._connections.values():
            writer.transport.pause_reading()
            reader.feed_eof()

    async def run(self, install_signals: bool = True) -> None:
        """Start, serve until stopped, then drain and tear down."""
        await self.start()
        loop = asyncio.get_running_loop()
        installed: list[signal.Signals] = []
        if install_signals:
            for sig in (signal.SIGINT, signal.SIGTERM):
                try:
                    loop.add_signal_handler(sig, self.request_stop)
                    installed.append(sig)
                except (NotImplementedError, RuntimeError):  # pragma: no cover
                    pass
        try:
            await self._stop.wait()
        finally:
            for sig in installed:
                loop.remove_signal_handler(sig)
            await self.shutdown()

    async def shutdown(self) -> None:
        """Stop accepting, finish in-flight requests, stop the workers."""
        self.request_stop()
        if self._server is not None:
            self._server.close()
            await self._server.wait_closed()
            self._server = None
        if self._connections:
            await asyncio.gather(*list(self._connections), return_exceptions=True)
        await self.engine.aclose()

    # -- per-connection ---------------------------------------------------------
    async def _handle_connection(
        self, reader: asyncio.StreamReader, writer: asyncio.StreamWriter
    ) -> None:
        task = asyncio.current_task()
        self._connections[task] = (reader, writer)
        pending: set[asyncio.Task] = set()
        if self._stop.is_set():  # accepted while the listener was closing
            self.request_stop()
        try:
            while True:
                try:
                    payload = await read_frame(reader)
                except FrameError:
                    break
                if payload is None:  # client EOF, or request_stop()'s
                    break
                request_id, op, body = self.codec.loads(payload)
                request = asyncio.ensure_future(
                    self._handle_request(writer, request_id, op, body)
                )
                pending.add(request)
                request.add_done_callback(pending.discard)
            if pending:
                await asyncio.gather(*list(pending), return_exceptions=True)
        finally:
            writer.close()
            try:
                await writer.wait_closed()
            except Exception:  # noqa: BLE001 - client may already be gone
                pass
            del self._connections[task]

    async def _handle_request(
        self, writer: asyncio.StreamWriter, request_id, op: str, body
    ) -> None:
        try:
            result = await self._dispatch(op, body)
            reply = [request_id, True, result]
        except Exception as exc:  # noqa: BLE001 - reported to the client
            reply = [request_id, False, f"{type(exc).__name__}: {exc}"]
        if not writer.is_closing():
            write_frame(writer, self.codec.dumps(reply))

    async def _dispatch(self, op: str, body):
        if op == "serve":
            query = wire.query_from_wire(body[0])
            ctx = body[3] if len(body) > 3 else None
            tracer = self.engine.engine.tracer
            if ctx is not None and tracer is not None:
                # The client opened a root span for this request: adopt its
                # identity so the router's request span (and the worker
                # spans grafted under it) lands in the client's trace.
                with tracer.adopt(ctx):
                    outcome = await self.engine.serve(
                        query, now=body[1], deadline=body[2]
                    )
            else:
                outcome = await self.engine.serve(
                    query, now=body[1], deadline=body[2]
                )
            self.requests_served += 1
            response = outcome.response
            return {
                "status": outcome.status,
                "wall_latency": outcome.wall_latency,
                "result": response.result if response is not None else None,
                "latency": response.latency if response is not None else None,
            }
        if op == "health":
            reply = {
                "status": "ok",
                "workers": self.engine.pool.n_shards,
                "inflight": self.engine.inflight,
                "requests": self.engine.metrics.requests,
                "usage": self.engine.pool.usage_snapshot(),
                "worker_pids": self.engine.pool.worker_pids(),
                "worker_restarts": self.engine.metrics.worker_restarts,
            }
            breakers = getattr(self.engine, "shard_breakers", None)
            if breakers:
                reply["shards"] = [breaker.state for breaker in breakers]
            if self.slo is not None:
                reply["slo"] = self.slo.health_summary()
            return reply
        if op == "metrics":
            return self.engine.metrics.summary()
        if op == "ping":
            return "pong"
        raise ValueError(f"unknown op {op!r}")
