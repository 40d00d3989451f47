"""The shard worker: one process, one :class:`AsteriaCache` shard.

A worker is spawned by :class:`~repro.serving.proc.pool.WorkerPool`, builds
its shard locally from a pickled :class:`WorkerSpec` (so embedder, arena,
ANN index, and judger state never cross a process boundary), connects
*back* to the router over loopback TCP, and then serves ops frame by frame:

``lookup_batch``
    One frame carries every lookup the router issued for this shard in one
    loop tick, and the router's ``tau_lsm`` (recalibration moves it), set
    before any item is served. The worker serves them in order, each
    through the scalar ``cache.lookup`` at its own clock and under its own
    spec's ``config.match`` — the sequential engine's lookup, so every item
    replays it decision for decision.
``insert``
    Admit one fetched result (the router already decided admission), marked
    prefetched when the router says so.
``contains``
    The prefetch guard's stage-1 membership probe.
``stats`` / ``ping`` / ``shutdown``
    Introspection and lifecycle; ``stats`` reports ``protocol_errors``.

A request frame :func:`~repro.serving.proc.protocol.request_frame` refuses
gets no reply, counts in ``protocol_errors``, and the worker reads the next
one: the length prefix still marks where it starts, and closing the router's
only link would be the same as crashing.

Every reply piggybacks the shard's live :class:`CacheStats` plus its item
count, so the router's cache view is exact at the moment it records
metrics — no separate stats poll, no read-after-write races.

Tracing rides the same piggyback: lookup/insert bodies may carry a
``[trace_id, parent_span_id]`` context per item, the worker's
:class:`~repro.obs.distributed.WorkerTracer` records real ``embed`` /
``ann_search`` / ``judge`` / ``evict`` spans under those remote parents,
and each reply appends the drained span records as an optional fifth
element (raw worker-clock timestamps — the router re-bases them with the
clock offset estimated at the hello handshake's ``clock`` ping). Untraced
frames carry no context and no fifth element.

Shutdown: SIGTERM (or a ``shutdown`` op, or router EOF) sets a stop flag
checked between frames; SIGINT is ignored so a Ctrl-C in the foreground
process group lets the router drain in-flight work and coordinate the
teardown.
"""

from __future__ import annotations

import os
import signal
import socket
import time
from dataclasses import dataclass
from typing import TYPE_CHECKING

from repro.core import records
from repro.obs.distributed import WorkerTracer
from repro.serving.proc.protocol import (
    FrameError,
    FrameReader,
    JsonCodec,
    connect_link,
    request_frame,
    send_frame,
)

if TYPE_CHECKING:  # the factory imports this module; see _ShardServer
    from repro.factory import StackSpec

#: First frame a worker sends after connecting:
#: ["hello", MAGIC, shard, pid, restore | None] — ``restore`` summarises what
#: a persisted shard warm-loaded before serving (the supervisor puts it in
#: the ``shard_recover`` trace span).
HELLO_MAGIC = "repro-shard-worker-v2"

#: Seconds a worker blocks in ``recv`` before re-checking its stop flag.
POLL_TIMEOUT = 0.5


@dataclass
class WorkerSpec:
    """Everything a worker needs to rebuild one shard, picklable by design:
    which shard it is, and the shard's :class:`~repro.factory.StackSpec`
    (already split by ``StackSpec.shard`` — per-shard capacity and, when
    persisted, the shard's own ``DIR/shard_NN`` home).
    """

    shard_id: int
    n_shards: int
    stack: StackSpec

    def __post_init__(self) -> None:
        if not isinstance(self.stack.policy, str):
            raise TypeError(
                "WorkerSpec needs a policy *name* (it crosses the process "
                f"boundary), got {type(self.stack.policy).__name__}"
            )
        if not 0 <= self.shard_id < self.n_shards:
            raise ValueError(
                f"shard_id {self.shard_id} out of range for {self.n_shards} shards"
            )


class _ShardServer:
    """Op dispatch over one shard cache (separated from I/O for testing)."""

    def __init__(self, spec: WorkerSpec) -> None:
        # Imported here, not at module top: the factory imports this package
        # (build_proc_engine), so a top-level import would be circular — and
        # the parent never needs the heavy build path just to spawn us.
        from repro.factory import build_semantic_cache

        self.spec = spec
        self.cache = build_semantic_cache(spec.stack)
        self.store = getattr(self.cache, "persistent_store", None)
        # Always installed: with no remote context active its ``live`` count
        # is 0, so the cache's leaf guards short-circuit on one attribute
        # load — untraced frames pay an integer check per stage, nothing
        # more.
        self.tracer = WorkerTracer()
        self.cache.set_tracer(self.tracer)
        #: Request frames refused unanswered (see :func:`serve_frames`).
        self.protocol_errors = 0

    def close(self) -> None:
        """Flush and checkpoint the persistence tier, if any."""
        if self.store is not None:
            self.store.close(checkpoint=True)

    def stats_tuple(self) -> list:
        return records.shard_stats_row(self.cache.stats, self.cache.usage())

    def dispatch(self, op: str, body):
        """Run one op; returns the reply payload. ``shutdown`` returns the
        sentinel string ``"bye"`` — the caller breaks its loop on it."""
        if op == "lookup_batch":
            return self._lookup_batch(body)
        if op == "insert":
            return self._insert(body)
        if op == "contains":
            return self.cache.contains_semantic(records.query_from_record(body))
        if op == "stats":
            reply = {
                "shard": self.spec.shard_id,
                "usage": self.cache.usage(),
                "capacity_items": self.cache.capacity_items,
                "stats": self.stats_tuple(),
                "tau_lsm": self.cache.sine.tau_lsm,
                "protocol_errors": self.protocol_errors,
            }
            report = getattr(self.cache, "restore_report", None)
            if report is not None:
                reply["restore"] = report.as_dict()
            return reply
        if op == "ping":
            return "pong"
        if op == "clock":
            # The router's hello-handshake ping/pong: return a raw reading
            # of the clock the tracer stamps spans with, so the midpoint
            # offset estimate aligns span timestamps, not just some clock.
            return time.perf_counter()
        if op == "shutdown":
            return "bye"
        raise ValueError(f"unknown op {op!r}")

    def _lookup_batch(self, body) -> list:
        """Serve a frame's lookups one by one, in order, each the scalar
        ``cache.lookup`` at its own clock under its own trace context, all
        under the frame's ``tau_lsm``."""
        items, tau_lsm = body
        if type(tau_lsm) not in (int, float):
            raise records.RecordError(f"tau_lsm must be a number, got {tau_lsm!r:.40}")
        # Decode every item first: a malformed one refuses the whole frame
        # before any lookup has touched the cache.
        queries = [records.query_from_record(row[0]) for row in items]
        self.cache.sine.tau_lsm = tau_lsm
        match = self.spec.stack.config.match
        out = []
        for query, row in zip(queries, items):
            # Optional third element: the router's [trace_id, parent_span_id]
            # for that request (absent on untraced traffic — frames stay
            # byte-identical to the pre-tracing wire).
            with self.tracer.activate(row[2] if len(row) > 2 else None):
                result = self.cache.lookup(query, row[1], match)
            out.append(records.sine_record(result))
        return out

    def _insert(self, body) -> dict:
        query = records.query_from_record(body[0])
        fetch = records.fetch_from_record(body[1])
        arrival = body[2]
        ctx = body[3] if len(body) > 3 else None
        prefetched = len(body) > 4 and body[4] is True
        with self.tracer.activate(ctx):
            element = self.cache.insert(query, fetch, arrival, prefetched)
        return records.element_record(element)


def serve_frames(
    server: _ShardServer, sock: socket.socket, codec: JsonCodec, stop: dict
) -> None:
    """The worker's frame loop: read, dispatch, reply, until ``stop["flag"]``
    is set, a ``shutdown`` op arrives, or the router closes the link.

    ``sock`` polls (its timeout is the stop-flag check interval); the
    :class:`FrameReader` keeps a frame that straddles a timeout intact. A
    refused request frame is counted and gets no reply.
    """
    reader = FrameReader(sock)
    while not stop["flag"]:
        try:
            payload = reader.read()
        except socket.timeout:
            continue
        if payload is None:  # router closed: nothing left to serve
            break
        try:
            request_id, op, body = request_frame(codec, payload)
        except (FrameError, records.RecordError):
            server.protocol_errors += 1
            continue
        try:
            ok, result = True, server.dispatch(op, body)
        except Exception as exc:  # noqa: BLE001 - reported to the router
            ok, result = False, f"{type(exc).__name__}: {exc}"
        reply = [request_id, ok, result, server.stats_tuple()]
        # Spans recorded while dispatching ride back on this reply (same
        # piggyback trick as the stats tuple). Drained on both paths so
        # a failing op can't leak its spans into the next frame.
        spans = server.tracer.drain_wire()
        if spans:
            reply.append(spans)
        send_frame(sock, codec.dumps(reply))
        if op == "shutdown":
            break


def worker_main(spec: WorkerSpec, host: str, port: int) -> None:
    """Child-process entry point (must stay importable for ``spawn``)."""
    stop = {"flag": False}

    def _on_sigterm(signum, frame):
        stop["flag"] = True

    signal.signal(signal.SIGTERM, _on_sigterm)
    signal.signal(signal.SIGINT, signal.SIG_IGN)

    codec = JsonCodec()
    server = _ShardServer(spec)
    sock = connect_link(host, port, 30.0, POLL_TIMEOUT)
    try:
        report = getattr(server.cache, "restore_report", None)
        restore = None
        if report is not None:
            restore = {"cold": report.cold, "restored_items": report.restored_items}
        send_frame(
            sock,
            codec.dumps(["hello", HELLO_MAGIC, spec.shard_id, os.getpid(), restore]),
        )
        serve_frames(server, sock, codec, stop)
    finally:
        # Graceful stop (SIGTERM / shutdown op / router EOF): flush the
        # journal tail and checkpoint so a clean restart replays nothing.
        # A SIGKILL skips this — that is what fsync batching is for.
        try:
            server.close()
        except OSError:
            pass
        try:
            sock.shutdown(socket.SHUT_RDWR)
        except OSError:
            pass
        sock.close()
