"""The shard worker: one process, one :class:`AsteriaCache` shard.

A worker is spawned by :class:`~repro.serving.proc.pool.WorkerPool`, builds
its shard locally from a pickled :class:`WorkerSpec` (so embedder, arena,
ANN index, and judger state never cross a process boundary), connects
*back* to the router over loopback TCP, and then serves ops frame by frame:

``lookup_batch``
    One frame carries every request the router accumulated for this shard:
    expired entries are purged once at the newest timestamp, stage 1
    (embed + ANN) runs as one shared batch, and stage 2 judges each query
    against its own clock — the exact preamble of the sequential engine's
    ``handle_batch``, so a frame of size 1 replays a scalar lookup
    decision for decision.
``insert``
    Admit one fetched result (the router already decided admission).
``stats`` / ``ping`` / ``shutdown``
    Introspection and lifecycle.

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
frames are byte-identical to before: no context, no fifth element.

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
    FrameReader,
    JsonCodec,
    connect_link,
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
        if op == "stats":
            reply = {
                "shard": self.spec.shard_id,
                "usage": self.cache.usage(),
                "capacity_items": self.cache.capacity_items,
                "stats": self.stats_tuple(),
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
        items, ann_only = body[0], body[1]
        if not items:
            return []
        queries = [records.query_from_record(row[0]) for row in items]
        nows = [row[1] for row in items]
        # Optional third element per item: the router's [trace_id,
        # parent_span_id] context for that request (absent on untraced
        # traffic — frames stay byte-identical to the pre-tracing wire).
        ctxs = [row[2] if len(row) > 2 else None for row in items]
        # One purge at the newest clock + one shared stage-1 pass, then
        # per-query stage 2 at each query's own clock: the sequential
        # handle_batch preamble. Nothing mutates the index between prepare
        # and lookup inside a frame (hits only bump frequency/recency), so
        # the prepared hits stay exact.
        self.cache.remove_expired(max(nows))
        # The shared embed/ANN pass is one unit of work for the whole frame;
        # its spans are attributed to the first traced request in it (with
        # batch_window=0 frames are size 1, so this is exact attribution —
        # test_workers_one_replays_sync_engine_stage_counts relies on it).
        shared_ctx = next((ctx for ctx in ctxs if ctx is not None), None)
        with self.tracer.activate(shared_ctx):
            batch_hits = self.cache.prepare_batch([query.text for query in queries])
        out = []
        for query, hits, now, ctx in zip(queries, batch_hits, nows, ctxs):
            with self.tracer.activate(ctx):
                out.append(
                    records.sine_record(
                        self.cache.lookup_prepared(query, hits, now, ann_only=ann_only)
                    )
                )
        return out

    def _insert(self, body) -> dict:
        query = records.query_from_record(body[0])
        fetch = records.fetch_from_record(body[1])
        arrival = body[2]
        ctx = body[3] if len(body) > 3 else None
        with self.tracer.activate(ctx):
            element = self.cache.insert(query, fetch, arrival)
        return records.element_record(element)


def serve_frames(
    server: _ShardServer, sock: socket.socket, codec: JsonCodec, stop: dict
) -> None:
    """The worker's frame loop: read, dispatch, reply, until ``stop["flag"]``
    is set, a ``shutdown`` op arrives, or the router closes the link.

    ``sock`` polls (its timeout is the stop-flag check interval); the
    :class:`FrameReader` keeps a frame that straddles a timeout intact.
    """
    reader = FrameReader(sock)
    while not stop["flag"]:
        try:
            payload = reader.read()
        except socket.timeout:
            continue
        if payload is None:  # router closed: nothing left to serve
            break
        request_id, op, body = codec.loads(payload)
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
