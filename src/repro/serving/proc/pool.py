"""Worker-pool lifecycle and per-shard frame clients for the proc tier.

:class:`WorkerPool` owns the processes: it binds an ephemeral loopback
listener, spawns one worker per shard (``multiprocessing`` *spawn* context —
no forked locks, clean numpy state), and each worker connects back and
identifies itself with a hello frame. Launch is synchronous and event-loop
free; the asyncio wrapping of the connected sockets happens lazily at first
use (:meth:`WorkerPool.attach`), so a pool can be built before any loop
exists.

:class:`ShardClient` is the per-shard protocol endpoint. It pipelines
requests (a monotonically increasing request id maps replies to waiter
futures, so many ops can be in flight on one connection) and micro-batches
lookups: requests that arrive within ``batch_window`` wall seconds (or up to
``batch_max`` of them) travel as *one* ``lookup_batch`` frame — the same
accumulation rule as ``AsyncAsteriaEngine.serve_batched``, applied per shard
at the wire. Every reply refreshes :attr:`ShardClient.last_stats`, the
piggybacked shard-stats tuple the router's cache view reads; because the
update happens before the waiter future resolves, metric recording after an
``await`` always sees stats at least as fresh as its own operation.
"""

from __future__ import annotations

import asyncio
import functools
import multiprocessing
import os
import pathlib
import socket
import time

from repro.core.cache import CacheStats
from repro.core.sharding import shard_index_for
from repro.serving.proc import wire
from repro.serving.proc.protocol import (
    FrameReader,
    PickleCodec,
    link_socket,
    read_frame,
    send_frame,
    write_frame,
)
from repro.serving.proc.worker import HELLO_MAGIC, WorkerSpec, worker_main

#: Seconds the pool waits for all workers to connect back and say hello.
LAUNCH_TIMEOUT = 60.0


class WorkerError(RuntimeError):
    """An op failed inside a worker (the message is the worker's traceback
    summary) or the worker connection was lost mid-flight.

    ``shard_id`` identifies the fault domain when known, so the proc engine
    can charge the failure to that shard's breaker instead of the backend's.
    """

    def __init__(self, message: str, shard_id: int | None = None) -> None:
        super().__init__(message)
        self.shard_id = shard_id


def _scatter(waiters: list[asyncio.Future], frame_future: asyncio.Future) -> None:
    """Resolve a lookup_batch frame's waiters from its reply, or from its one
    shared failure (the proc engine dedups shard failures on the object). A
    deadline may have cancelled a waiter while the frame flew."""
    exc = frame_future.exception()
    if exc is not None:
        for waiter in waiters:
            if not waiter.done():
                waiter.set_exception(exc)
        return
    for waiter, result in zip(waiters, frame_future.result()):
        if not waiter.done():
            waiter.set_result(result)


class ShardClient:
    """Protocol endpoint for one shard worker (pipelined + lookup-batched).

    ``on_connection_lost`` (``fn(shard_id)``) fires once when the read loop
    tears down for any reason other than a deliberate :meth:`aclose` — the
    pool forwards it to the supervisor as a death report. ``frame_faults``
    is an optional :class:`~repro.serving.proc.supervisor.ProcFaultInjector`
    consulted per reply frame (chaos only; None in production paths).
    """

    def __init__(
        self,
        shard_id: int,
        sock: socket.socket,
        batch_window: float = 0.0,
        batch_max: int = 16,
        ann_only: bool = False,
        on_connection_lost=None,
        frame_faults=None,
        on_spans=None,
    ) -> None:
        self.shard_id = shard_id
        self.codec = PickleCodec()
        self.batch_window = batch_window
        self.batch_max = batch_max
        self.ann_only = ann_only
        self.on_connection_lost = on_connection_lost
        self.frame_faults = frame_faults
        #: ``fn(shard_id, records, clock_offset)`` for piggybacked span
        #: records (optional fifth reply element); None drops them.
        self.on_spans = on_spans
        #: Router-clock minus worker-clock estimate from the hello
        #: handshake's clock ping (``worker_reading + clock_offset`` lands
        #: on the router's perf_counter timeline).
        self.clock_offset = 0.0
        #: Latest piggybacked shard stats: [inserts, evictions, expirations,
        #: rejected_duplicates, prefetch_inserts, usage].
        self.last_stats: list = [0, 0, 0, 0, 0, 0]
        #: True between a connection loss and the first reply from a
        #: respawned worker: ``last_stats`` still describes the dead
        #: incarnation and must not be trusted as live state.
        self.stats_stale = False
        self._sock: socket.socket | None = sock
        self._reader: asyncio.StreamReader | None = None
        self._writer: asyncio.StreamWriter | None = None
        self._reader_task: asyncio.Task | None = None
        self._next_id = 0
        self._pending: dict[int, asyncio.Future] = {}
        #: The open accumulation window: wire items and their waiters.
        self._lookup_items: list[list] = []
        self._lookup_waiters: list[asyncio.Future] = []
        self._lookup_timer: asyncio.Handle | None = None
        self._closed = False
        self._expect_close = False

    @property
    def attached(self) -> bool:
        return self._writer is not None

    async def attach(self) -> None:
        """Wrap the connected socket into asyncio streams (idempotent)."""
        if self._writer is not None or self._sock is None:
            return
        sock, self._sock = self._sock, None
        sock.setblocking(True)
        self._reader, self._writer = await asyncio.open_connection(sock=sock)
        self._reader_task = asyncio.ensure_future(self._read_loop())

    # -- ops ------------------------------------------------------------------
    def _send(self, op: str, body) -> asyncio.Future:
        if self._writer is None:
            raise WorkerError(
                f"shard {self.shard_id}: client not attached", self.shard_id
            )
        if self._closed:
            raise WorkerError(
                f"shard {self.shard_id}: connection closed", self.shard_id
            )
        request_id = self._next_id
        self._next_id += 1
        future = asyncio.get_running_loop().create_future()
        self._pending[request_id] = future
        write_frame(self._writer, self.codec.dumps([request_id, op, body]))
        return future

    async def call(self, op: str, body=None):
        """One pipelined op; raises :class:`WorkerError` on worker failure."""
        return await self._send(op, body)

    async def lookup(self, query, now: float, ctx=None):
        """Join this shard's accumulation window; resolves to a SineResult.

        ``ctx`` is the request's ``[trace_id, parent_span_id]`` stamp (None
        on untraced traffic), carried per item so one frame can mix traced
        and untraced requests."""
        loop = asyncio.get_running_loop()
        future = loop.create_future()
        # Untraced items stay two elements long, so untraced frames are
        # byte-identical to the pre-tracing wire format.
        item = [wire.query_to_wire(query), now]
        if ctx is not None:
            item.append(ctx)
        self._lookup_items.append(item)
        self._lookup_waiters.append(future)
        if len(self._lookup_items) >= self.batch_max:
            self.flush_lookups()
        elif self._lookup_timer is None:
            # No window: flush once this loop tick's lookups have all joined
            # (a ready-queue callback, not a zero-delay trip through the
            # timer heap).
            self._lookup_timer = (
                loop.call_later(self.batch_window, self.flush_lookups)
                if self.batch_window > 0
                else loop.call_soon(self.flush_lookups)
            )
        return wire.sine_from_wire(await future)

    async def insert(self, query, fetch, arrival: float, ctx=None):
        body = [wire.query_to_wire(query), wire.fetch_to_wire(fetch), arrival]
        if ctx is not None:
            body.append(ctx)
        return await self.call("insert", body)

    def flush_lookups(self) -> None:
        """Ship the pending accumulation window as one lookup_batch frame."""
        if self._lookup_timer is not None:
            self._lookup_timer.cancel()
            self._lookup_timer = None
        items, waiters = self._lookup_items, self._lookup_waiters
        if not items:
            return
        self._lookup_items, self._lookup_waiters = [], []
        try:
            frame_future = self._send("lookup_batch", [items, self.ann_only])
        except WorkerError as exc:
            frame_future = asyncio.get_running_loop().create_future()
            frame_future.set_exception(exc)
        frame_future.add_done_callback(functools.partial(_scatter, waiters))

    async def _read_loop(self) -> None:
        error: BaseException | None = None
        try:
            while True:
                payload = await read_frame(self._reader)
                if payload is None:
                    break
                if self.frame_faults is not None:
                    action, delay = self.frame_faults.frame_action(self.shard_id)
                    if action == "drop":
                        # The waiter stays pending: exactly a hung worker,
                        # which is the supervisor heartbeat's job to notice.
                        continue
                    if delay > 0:
                        await asyncio.sleep(delay)
                frame = self.codec.loads(payload)
                request_id, ok, result, stats = frame[:4]
                # Stats first, waiter second: by the time an awaiting caller
                # resumes, the router's cache view already reflects this op.
                self.last_stats = stats
                self.stats_stale = False
                # Piggybacked span records (optional fifth element) graft
                # before the waiter resumes too, so a request span closing
                # right after the await already owns its worker stages.
                if len(frame) > 4 and frame[4] and self.on_spans is not None:
                    self.on_spans(self.shard_id, frame[4], self.clock_offset)
                future = self._pending.pop(request_id, None)
                if future is None or future.done():
                    continue
                if ok:
                    future.set_result(result)
                else:
                    future.set_exception(
                        WorkerError(f"shard {self.shard_id}: {result}", self.shard_id)
                    )
        except asyncio.CancelledError:
            raise
        except Exception as exc:  # noqa: BLE001 - fail pending below
            error = exc
        finally:
            self._closed = True
            self.stats_stale = True
            # One shared exception object for every pending waiter: the proc
            # engine's per-flight failure accounting dedups on the object
            # (like coalesced-follower accounting), so a burst of in-flight
            # requests dying together charges the shard breaker once.
            lost = WorkerError(
                f"shard {self.shard_id}: connection lost"
                + (f" ({error})" if error else ""),
                self.shard_id,
            )
            for future in self._pending.values():
                if not future.done():
                    future.set_exception(lost)
            self._pending.clear()
            if not self._expect_close and self.on_connection_lost is not None:
                self.on_connection_lost(self.shard_id)

    async def aclose(self) -> None:
        self._expect_close = True
        if self._reader_task is not None:
            self._reader_task.cancel()
            try:
                await self._reader_task
            except (asyncio.CancelledError, Exception):  # noqa: BLE001
                pass
            self._reader_task = None
        if self._writer is not None:
            self._writer.close()
            try:
                await self._writer.wait_closed()
            except Exception:  # noqa: BLE001 - teardown best-effort
                pass
            self._writer = None
        if self._sock is not None:
            self._sock.close()
            self._sock = None


class WorkerPool:
    """Spawn, address, and tear down one worker process per shard."""

    def __init__(
        self,
        specs: list[WorkerSpec],
        batch_window: float = 0.0,
        batch_max: int = 16,
        ann_only: bool = False,
        host: str = "127.0.0.1",
        frame_faults=None,
    ) -> None:
        if not specs:
            raise ValueError("WorkerPool needs at least one WorkerSpec")
        self.specs = specs
        self.codec = PickleCodec()
        self.batch_window = batch_window
        self.batch_max = batch_max
        self.ann_only = ann_only
        self.host = host
        self.frame_faults = frame_faults
        self.n_shards = len(specs)
        self.clients: list[ShardClient] = []
        self.processes: list[multiprocessing.process.BaseProcess] = []
        #: Optional :class:`~repro.serving.proc.supervisor.WorkerSupervisor`
        #: (see :meth:`enable_supervision`); started at :meth:`attach`,
        #: stopped first in the teardown paths.
        self.supervisor = None
        #: ``fn(shard_id, records, clock_offset)`` receiving piggybacked
        #: worker span records (installed by the router cache view's
        #: ``set_tracer`` via :func:`repro.obs.distributed.make_span_sink`;
        #: None = spans dropped at the client).
        self.span_sink = None
        self._launched = False

    def enable_supervision(self, **knobs):
        """Attach a :class:`WorkerSupervisor` so dead workers are respawned.

        Keyword knobs are forwarded to the supervisor constructor. Must run
        before :meth:`attach`; returns the supervisor for callback wiring.
        """
        from repro.serving.proc.supervisor import WorkerSupervisor

        if self.supervisor is None:
            self.supervisor = WorkerSupervisor(self, **knobs)
        return self.supervisor

    def _make_client(
        self, shard_id: int, conn: socket.socket, clock_offset: float
    ) -> ShardClient:
        client = ShardClient(
            shard_id,
            conn,
            batch_window=self.batch_window,
            batch_max=self.batch_max,
            ann_only=self.ann_only,
            on_connection_lost=self._connection_lost,
            frame_faults=self.frame_faults,
            on_spans=self._forward_spans,
        )
        client.clock_offset = clock_offset
        return client

    def _connection_lost(self, shard_id: int) -> None:
        if self.supervisor is not None:
            self.supervisor.notify_death(shard_id)

    def _forward_spans(self, shard_id: int, records, clock_offset: float) -> None:
        sink = self.span_sink
        if sink is not None:
            sink(shard_id, records, clock_offset)

    def _accept_hello(self, listener: socket.socket):
        """Accept one worker connection, validate its hello frame, and run
        the clock handshake; returns ``(shard_id, conn,
        restore_report_or_None, clock_offset)``."""
        conn, _ = listener.accept()
        # A timeout anywhere in the handshake abandons the connection, so
        # the reader is here for its framing checks, not to survive one.
        reader = FrameReader(link_socket(conn, LAUNCH_TIMEOUT))
        hello = reader.read()
        if hello is None:
            raise WorkerError("worker closed connection before hello")
        message = self.codec.loads(hello)
        if message[0] != "hello" or message[1] != HELLO_MAGIC:
            conn.close()
            raise WorkerError(f"unexpected hello frame: {message!r}")
        restore = message[4] if len(message) > 4 else None
        # Clock handshake: one synchronous ping/pong estimates the worker's
        # perf_counter offset from ours as the round-trip midpoint —
        # ``offset = (t0 + t1) / 2 - worker_reading`` — so piggybacked span
        # timestamps re-base onto the router's timeline with error bounded
        # by half the (loopback, ~tens of µs) round trip.
        t0 = time.perf_counter()
        send_frame(conn, self.codec.dumps([-1, "clock", None]))
        pong = reader.read()
        t1 = time.perf_counter()
        if pong is None:
            conn.close()
            raise WorkerError("worker closed connection during clock handshake")
        if not reader.idle:
            # asyncio takes the socket next and would never see these bytes.
            conn.close()
            raise WorkerError("worker sent unsolicited bytes during the handshake")
        clock_offset = (t0 + t1) / 2.0 - self.codec.loads(pong)[2]
        conn.settimeout(None)
        return message[2], conn, restore, clock_offset

    # -- lifecycle ------------------------------------------------------------
    def _spawn(self, specs: list[WorkerSpec]) -> tuple[list, dict[int, list]]:
        """Start one worker per spec on a fresh loopback listener and complete
        every hello handshake (blocking). Returns ``(processes, hellos)`` with
        ``hellos[shard_id] = (conn, restore_report_or_None, clock_offset)``;
        on failure everything it started is closed and killed."""
        listener = socket.socket(socket.AF_INET, socket.SOCK_STREAM)
        processes: list[multiprocessing.process.BaseProcess] = []
        hellos: dict[int, list] = {}
        try:
            listener.bind((self.host, 0))
            listener.listen(len(specs))
            listener.settimeout(LAUNCH_TIMEOUT)
            port = listener.getsockname()[1]
            ctx = multiprocessing.get_context("spawn")
            with _spawn_pythonpath():
                for spec in specs:
                    process = ctx.Process(
                        target=worker_main,
                        args=(spec, self.host, port),
                        daemon=True,
                        name=f"repro-shard-{spec.shard_id}",
                    )
                    process.start()
                    processes.append(process)
            for _ in specs:
                shard_id, *hello = self._accept_hello(listener)
                hellos[shard_id] = hello
            expected = sorted(spec.shard_id for spec in specs)
            if sorted(hellos) != expected:
                raise WorkerError(f"expected shards {expected}, got {sorted(hellos)}")
        except Exception:
            for conn, _, _ in hellos.values():
                conn.close()
            for process in processes:
                if process.is_alive():
                    process.kill()
                process.join(timeout=5.0)
            raise
        finally:
            listener.close()
        return processes, hellos

    def launch(self) -> None:
        """Spawn the workers and complete the hello handshake (blocking)."""
        if self._launched:
            return
        self.processes, hellos = self._spawn(self.specs)
        self.clients = []
        for shard_id in range(self.n_shards):
            conn, _, clock_offset = hellos[shard_id]
            self.clients.append(self._make_client(shard_id, conn, clock_offset))
        self._launched = True

    def spawn_worker(self, spec: WorkerSpec):
        """Spawn ONE worker for ``spec`` and complete its hello handshake
        (blocking — the supervisor runs this in an executor). Returns
        ``(process, conn, restore_report_or_None, clock_offset)``; the
        caller swaps them in via :meth:`replace_client`."""
        (process,), hellos = self._spawn([spec])
        return (process, *hellos[spec.shard_id])

    def replace_client(
        self,
        shard_id: int,
        conn: socket.socket,
        process,
        clock_offset: float = 0.0,
    ) -> ShardClient:
        """Install a respawned worker's connection/process for ``shard_id``.

        The new client inherits the dead incarnation's ``last_stats`` with
        ``stats_stale`` set: cumulative counters stay monotone for readers,
        but are flagged untrusted until the first post-recovery reply.
        ``clock_offset`` is the respawned incarnation's own estimate — the
        dead worker's offset means nothing for a new process."""
        old = self.clients[shard_id]
        client = self._make_client(shard_id, conn, clock_offset)
        client.last_stats = list(old.last_stats)
        client.stats_stale = True
        self.clients[shard_id] = client
        self.processes[shard_id] = process
        return client

    @property
    def attached(self) -> bool:
        return bool(self.clients) and all(c.attached for c in self.clients)

    async def attach(self) -> None:
        """Wrap every worker connection for the running loop (idempotent);
        starts the supervisor's heartbeat when one is enabled."""
        if not self._launched:
            self.launch()
        for client in self.clients:
            await client.attach()
        if self.supervisor is not None:
            self.supervisor.start()

    def worker_pids(self) -> list[int | None]:
        """Live worker PIDs by shard (for health introspection and the CI
        chaos job's kill target)."""
        return [process.pid for process in self.processes]

    # -- routing --------------------------------------------------------------
    def shard_for(self, text: str) -> int:
        return shard_index_for(text, self.n_shards)

    async def lookup(self, query, now: float, ctx=None):
        return await self.clients[self.shard_for(query.text)].lookup(
            query, now, ctx=ctx
        )

    async def insert(self, query, fetch, arrival: float, ctx=None):
        return await self.clients[self.shard_for(query.text)].insert(
            query, fetch, arrival, ctx=ctx
        )

    def flush(self) -> None:
        """Force every shard's accumulation window onto the wire."""
        for client in self.clients:
            client.flush_lookups()

    async def stats(self) -> list[dict]:
        """Fresh per-shard stats (also refreshes the piggyback tuples)."""
        return list(
            await asyncio.gather(*(client.call("stats") for client in self.clients))
        )

    # -- the router cache view reads these ------------------------------------
    def stats_snapshot(self) -> CacheStats:
        return wire.stats_from_tuples(client.last_stats for client in self.clients)

    def usage_snapshot(self) -> int:
        return wire.usage_from_tuples(client.last_stats for client in self.clients)

    @property
    def capacity_items(self) -> int | None:
        total = 0
        for spec in self.specs:
            if spec.stack.config.capacity_items is None:
                return None
            total += spec.stack.config.capacity_items
        return total

    # -- teardown -------------------------------------------------------------
    async def shutdown(self, timeout: float = 10.0) -> None:
        """Graceful stop: flush windows, send shutdown ops, join processes.

        The supervisor stops *first* — the deliberate client closes below
        must not read as worker deaths and trigger a respawn storm."""
        if not self._launched:
            return
        if self.supervisor is not None:
            await self.supervisor.stop()
        await self.attach()
        self.flush()
        results = await asyncio.gather(
            *(client.call("shutdown") for client in self.clients),
            return_exceptions=True,
        )
        for result in results:
            if isinstance(result, BaseException) and not isinstance(
                result, WorkerError
            ):
                raise result
        for client in self.clients:
            await client.aclose()
        loop = asyncio.get_running_loop()
        await asyncio.gather(
            *(
                loop.run_in_executor(None, process.join, timeout)
                for process in self.processes
            )
        )
        self.close()

    def close(self) -> None:
        """Hard stop (idempotent; also the error-path cleanup)."""
        if self.supervisor is not None:
            self.supervisor.request_stop()
        for client in self.clients:
            sock = client.__dict__.get("_sock")
            if sock is not None:
                sock.close()
                client._sock = None
        for process in self.processes:
            if process.is_alive():
                process.terminate()
        for process in self.processes:
            process.join(timeout=5.0)
        self.processes = []
        self._launched = False


class _spawn_pythonpath:
    """Make sure spawned children can ``import repro`` even when the parent
    got it via ``sys.path`` manipulation rather than an installed package:
    temporarily prepend the package's source root to ``PYTHONPATH`` for the
    duration of the ``Process.start`` calls."""

    def __enter__(self):
        import repro

        src_root = str(pathlib.Path(repro.__file__).resolve().parent.parent)
        self._old = os.environ.get("PYTHONPATH")
        parts = [] if self._old is None else self._old.split(os.pathsep)
        if src_root not in parts:
            os.environ["PYTHONPATH"] = os.pathsep.join([src_root] + parts)
        return self

    def __exit__(self, *exc):
        if self._old is None:
            os.environ.pop("PYTHONPATH", None)
        else:
            os.environ["PYTHONPATH"] = self._old
        return False
