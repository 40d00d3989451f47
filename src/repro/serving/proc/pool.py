"""Worker-pool lifecycle and per-shard frame clients for the proc tier.

:class:`WorkerPool` owns the processes: it binds an ephemeral loopback
listener, spawns one worker per shard (``multiprocessing`` *spawn* context —
no forked locks, clean numpy state), and each worker connects back and
identifies itself with a checked hello frame. Launch is synchronous and
event-loop free; the asyncio wrapping of the connected sockets happens
lazily at first use (:meth:`WorkerPool.attach`), so a pool can be built
before any loop exists.

:class:`ShardClient` is the per-shard protocol endpoint: requests pipeline
over a :class:`~repro.serving.proc.protocol.FrameChannel`, and lookups are
framed by loop tick: every lookup for the shard issued in one tick travels
in *one* ``lookup_batch`` frame, shipped by a single ``call_soon`` — no
timer, no size cap (a frame holds at most the router's ``max_inflight``
items). The frame also carries the router's ``tau_lsm`` as it stands at the
flush, and the worker applies it before serving the items one by one. Every
reply refreshes :attr:`ShardClient.last_stats`, the piggybacked shard-stats
tuple the router's cache view reads; because the update happens before the
waiter future resolves, metric recording after an ``await`` always sees
stats at least as fresh as its own operation. A worker that stops answering
is the supervisor's heartbeat to notice
(:mod:`repro.serving.proc.supervisor`).
"""

from __future__ import annotations

import asyncio
import functools
import multiprocessing
import os
import pathlib
import socket
import time
from types import NoneType

from repro.core import records
from repro.core.sharding import shard_index_for
from repro.core.types import CacheStats
from repro.serving.proc.protocol import (
    FrameChannel,
    FrameError,
    FrameReader,
    JsonCodec,
    link_socket,
    send_frame,
)
from repro.serving.proc.worker import HELLO_MAGIC, WorkerSpec, worker_main

#: Seconds the pool waits for all workers to connect back and say hello.
LAUNCH_TIMEOUT = 60.0

#: A worker's hello, ``["hello", magic, shard_id, pid, restore | None]``, and
#: its reply to the clock ping, ``[-1, ok, worker_reading, stats_row]``.
_HELLO = ((str,), (str,), (int,), (int,), (dict, NoneType))
_PONG = ((int,), (bool,), (int, float), (list,))


class WorkerError(RuntimeError):
    """An op failed inside a worker (the message is the worker's traceback
    summary) or the worker connection was lost mid-flight.

    ``shard_id`` identifies the fault domain when known, so the proc engine
    can charge the failure to that shard's breaker instead of the backend's.
    """

    def __init__(self, message: str, shard_id: int | None = None) -> None:
        super().__init__(message)
        self.shard_id = shard_id


class _TauHolder:
    """The router's stand-in for ``cache.sine``, one per pool. The engine
    writes its thresholds here; recalibration moves ``tau_lsm`` here; and
    every ``lookup_batch`` frame carries the ``tau_lsm`` in force when it
    ships, which the worker applies before serving the frame. So no control
    op is ordered against lookups, and a respawned worker is current from
    its first frame. ``tau_sim`` and ``max_candidates`` never move: workers
    have them from their spec's config."""

    def __init__(self, config) -> None:
        self.tau_sim = config.tau_sim
        self.tau_lsm = config.tau_lsm
        self.max_candidates = config.max_candidates


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
    """Protocol endpoint for one shard worker (pipelined, one lookup frame
    per loop tick).

    ``pool`` is the owning :class:`WorkerPool`: each lookup frame carries its
    ``thresholds.tau_lsm``, piggybacked spans go to its ``span_sink``, and a
    loss other than a deliberate :meth:`aclose` is reported to its
    ``supervisor`` as a death.
    """

    def __init__(
        self, shard_id: int, sock: socket.socket, pool: WorkerPool, clock=(0.0, 0.0)
    ) -> None:
        self.shard_id = shard_id
        self.codec = JsonCodec()
        self.pool = pool
        #: Router-clock minus worker-clock estimate from the hello
        #: handshake's clock ping (``worker_reading + clock_offset`` lands
        #: on the router's perf_counter timeline), and that ping's round
        #: trip: the offset errs by at most half of it.
        self.clock_offset, self.clock_rtt = clock
        #: Latest piggybacked shard stats: [inserts, evictions, expirations,
        #: rejected_duplicates, prefetch_inserts, usage].
        self.last_stats: list = [0, 0, 0, 0, 0, 0]
        self._sock: socket.socket | None = sock
        self._channel: FrameChannel | None = None
        #: The open frame: this tick's lookup items and their waiters.
        self._lookup_items: list[list] = []
        self._lookup_waiters: list[asyncio.Future] = []
        self._flush_handle: asyncio.Handle | None = None
        self._expect_close = False

    @property
    def attached(self) -> bool:
        return self._channel is not None

    async def attach(self) -> None:
        """Wrap the connected socket into a frame channel (idempotent)."""
        if self._channel is not None or self._sock is None:
            return
        sock, self._sock = self._sock, None
        sock.setblocking(True)
        reader, writer = await asyncio.open_connection(sock=sock)
        # One loss object for every waiter: the proc engine charges a
        # shard's breaker once per object, so a burst of in-flight requests
        # dying together is one failure, not one per caller.
        self._channel = FrameChannel(
            reader, writer, self, self._error, self._error, share_loss=True,
            on_reply=self._on_reply, on_close=self._on_close,
        )

    def _error(self, message) -> WorkerError:
        return WorkerError(f"shard {self.shard_id}: {message}", self.shard_id)

    def _on_reply(self, frame: list) -> None:
        # Stats first, waiter second: by the time an awaiting caller
        # resumes, the router's cache view already reflects this op.
        stats = frame[3] if len(frame) > 3 else None
        records.check_rows([stats], records.SHARD_STATS_ROW, "shard stats")
        self.last_stats = stats
        # Piggybacked span records (optional fifth element) graft before the
        # waiter resumes too, so a request span closing right after the
        # await already owns its worker stages.
        sink = self.pool.span_sink
        if len(frame) > 4 and frame[4] and sink is not None:
            sink(self.shard_id, frame[4], self.clock_offset)

    def _on_close(self) -> None:
        if not self._expect_close and self.pool.supervisor is not None:
            self.pool.supervisor.notify_death(self.shard_id)

    # -- ops ------------------------------------------------------------------
    def _send(self, op: str, body) -> asyncio.Future:
        if self._channel is None:
            raise self._error("client not attached")
        return self._channel.send(op, body)

    async def call(self, op: str, body=None):
        """One pipelined op; raises :class:`WorkerError` on worker failure."""
        return await self._send(op, body)

    async def lookup(self, query, now: float, ctx=None):
        """Join this shard's open frame; resolves to a SineResult.

        ``ctx`` is the request's ``[trace_id, parent_span_id]`` stamp (None
        on untraced traffic), carried per item so one frame can mix traced
        and untraced requests."""
        loop = asyncio.get_running_loop()
        future = loop.create_future()
        # Untraced items stay two elements long: no trace field at all.
        item = [records.query_record(query), now]
        if ctx is not None:
            item.append(ctx)
        self._lookup_items.append(item)
        self._lookup_waiters.append(future)
        if self._flush_handle is None:
            # Ship once this loop tick's lookups have all joined: a
            # ready-queue callback, not a trip through the timer heap.
            self._flush_handle = loop.call_soon(self.flush_lookups)
        record = await future
        try:
            return records.sine_from_record(record)
        except records.RecordError as exc:  # a worker fault, not the caller's
            raise self._error(exc) from exc

    async def insert(self, query, fetch, arrival: float, ctx=None, prefetched=False):
        body = [records.query_record(query), records.fetch_record(fetch), arrival]
        if ctx is not None or prefetched:
            # Optional tail: the trace context, then the prefetched flag.
            body += [ctx, True] if prefetched else [ctx]
        return await self.call("insert", body)

    def flush_lookups(self) -> None:
        """Ship the open frame's lookups as one ``lookup_batch`` frame."""
        if self._flush_handle is not None:
            self._flush_handle.cancel()
            self._flush_handle = None
        items, waiters = self._lookup_items, self._lookup_waiters
        if not items:
            return
        self._lookup_items, self._lookup_waiters = [], []
        tau_lsm = self.pool.thresholds.tau_lsm
        try:
            frame_future = self._send("lookup_batch", [items, tau_lsm])
        except WorkerError as exc:
            frame_future = asyncio.get_running_loop().create_future()
            frame_future.set_exception(exc)
        frame_future.add_done_callback(functools.partial(_scatter, waiters))

    async def aclose(self) -> None:
        self._expect_close = True
        channel, self._channel = self._channel, None
        if channel is not None:
            await channel.aclose()
        if self._sock is not None:
            self._sock.close()
            self._sock = None


class WorkerPool:
    """Spawn, address, and tear down one worker process per shard."""

    def __init__(
        self,
        specs: list[WorkerSpec],
        host: str = "127.0.0.1",
    ) -> None:
        if not specs:
            raise ValueError("WorkerPool needs at least one WorkerSpec")
        self.specs = specs
        self.codec = JsonCodec()
        self.host = host
        self.n_shards = len(specs)
        self.clients: list[ShardClient] = []
        self.processes: list[multiprocessing.process.BaseProcess] = []
        #: Optional :class:`~repro.serving.proc.supervisor.WorkerSupervisor`,
        #: set before :meth:`attach` (the factory does it unless told not to
        #: supervise); started at :meth:`attach`, stopped first in the
        #: teardown paths.
        self.supervisor = None
        #: ``fn(shard_id, records, clock_offset)`` receiving piggybacked
        #: worker span records (installed by the router cache view's
        #: ``set_tracer`` via :func:`repro.obs.distributed.make_span_sink`;
        #: None = spans dropped at the client).
        self.span_sink = None
        self.thresholds = _TauHolder(specs[0].stack.config)
        self._launched = False

    def _accept_hello(self, listener: socket.socket):
        """Accept one worker connection, check its hello frame, and run the
        clock handshake; returns ``(shard_id, conn, restore_report_or_None,
        (clock_offset, clock_rtt))``. A malformed frame is a
        :class:`WorkerError` naming it, and the connection is closed on every
        failure."""
        conn, _ = listener.accept()
        try:
            # A timeout anywhere in the handshake abandons the connection, so
            # the reader is here for its framing checks, not to survive one.
            reader = FrameReader(link_socket(conn, LAUNCH_TIMEOUT))
            hello = self._handshake_frame(reader.read(), _HELLO, "hello")
            if hello[0] != "hello" or hello[1] != HELLO_MAGIC:
                raise WorkerError(f"unexpected hello frame: {hello!r}")
            # Clock handshake: one synchronous ping/pong estimates the
            # worker's perf_counter offset from ours as the round-trip
            # midpoint — ``offset = (t0 + t1) / 2 - worker_reading`` — so
            # piggybacked span timestamps re-base onto the router's timeline
            # with error bounded by half the (loopback, ~tens of µs) round trip.
            t0 = time.perf_counter()
            send_frame(conn, self.codec.dumps([-1, "clock", None]))
            pong = reader.read()
            t1 = time.perf_counter()
            pong = self._handshake_frame(pong, _PONG, "clock pong")
            if not reader.idle:
                # asyncio takes the socket next and would never see these bytes.
                raise WorkerError("worker sent unsolicited bytes during the handshake")
        except BaseException:
            conn.close()
            raise
        conn.settimeout(None)
        return hello[2], conn, hello[4], ((t0 + t1) / 2.0 - pong[2], t1 - t0)

    def _handshake_frame(self, payload: bytes | None, row: tuple, what: str) -> list:
        if payload is None:
            raise WorkerError(f"worker closed connection before its {what}")
        try:
            frame = self.codec.loads(payload)
            records.check_rows([frame], row, f"{what} frame")
        except (FrameError, records.RecordError) as exc:
            raise WorkerError(f"malformed {what}: {exc}") from exc
        return frame

    # -- lifecycle ------------------------------------------------------------
    def _spawn(self, specs: list[WorkerSpec]) -> tuple[list, dict[int, list]]:
        """Start one worker per spec on a fresh loopback listener and complete
        every hello handshake (blocking). Returns ``(processes, hellos)`` with
        ``hellos[shard_id] = (conn, restore_report_or_None, clock)``;
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
            conn, _, clock = hellos[shard_id]
            self.clients.append(ShardClient(shard_id, conn, self, clock))
        self._launched = True

    def spawn_worker(self, spec: WorkerSpec):
        """Spawn ONE worker for ``spec`` and complete its hello handshake
        (blocking — the supervisor runs this in an executor). Returns
        ``(process, conn, restore_report_or_None, clock)``; the
        caller swaps them in via :meth:`replace_client`."""
        (process,), hellos = self._spawn([spec])
        return (process, *hellos[spec.shard_id])

    def replace_client(
        self,
        shard_id: int,
        conn: socket.socket,
        process,
        clock=(0.0, 0.0),
    ) -> ShardClient:
        """Install a respawned worker's connection/process for ``shard_id``.

        The new client inherits the dead incarnation's ``last_stats``, so
        cumulative counters stay monotone for readers until the first
        post-recovery reply. ``clock`` (offset, round trip) is the respawned
        incarnation's own estimate — the dead worker's offset means nothing
        for a new process."""
        old = self.clients[shard_id]
        client = ShardClient(shard_id, conn, self, clock)
        client.last_stats = list(old.last_stats)
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

    # The caller routes once (the content key costs a tokenisation) and
    # hands every op its shard.
    async def lookup(self, query, now: float, shard: int, ctx=None):
        return await self.clients[shard].lookup(query, now, ctx=ctx)

    async def insert(
        self, query, fetch, arrival: float, shard: int, ctx=None, prefetched=False
    ):
        return await self.clients[shard].insert(
            query, fetch, arrival, ctx=ctx, prefetched=prefetched
        )

    async def contains(self, query, shard: int) -> bool:
        client = self.clients[shard]
        return await client.call("contains", records.query_record(query)) is True

    def flush(self) -> None:
        """Force every shard's open lookup frame onto the wire."""
        for client in self.clients:
            client.flush_lookups()

    async def stats(self) -> list[dict]:
        """Fresh per-shard stats (also refreshes the piggyback tuples)."""
        return list(
            await asyncio.gather(*(client.call("stats") for client in self.clients))
        )

    # -- the router cache view reads these ------------------------------------
    def stats_snapshot(self) -> CacheStats:
        return records.stats_from_rows(client.last_stats for client in self.clients)

    def usage_snapshot(self) -> int:
        return records.usage_from_rows(client.last_stats for client in self.clients)

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
        """Graceful stop: flush open frames, send shutdown ops, join processes.

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
