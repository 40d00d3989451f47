"""Tests for cross-process trace propagation (:mod:`repro.obs.distributed`):
context capture, worker-side recording, grafting with clock offsets, the
proc engine end to end, the TCP front door, and the replication link."""

import asyncio
import socket
import threading
from collections import Counter

import pytest

from repro.core import Query
from repro.factory import build_asteria_engine, build_proc_engine, build_remote
from repro.obs import SamplingTracer, Tracer
from repro.obs.distributed import (
    WorkerTracer,
    graft_spans,
    make_span_sink,
    trace_context,
)

WORKER_STAGES = ("embed", "ann_search", "judge", "recall")


def _queries(n, population=16):
    return [
        Query(f"stress fact number {i % population} of the universe",
              fact_id=f"F{i % population}")
        for i in range(n)
    ]


class TestTraceContext:
    def test_none_without_tracer_or_live_span(self):
        assert trace_context(None) is None
        tracer = Tracer()
        assert trace_context(tracer) is None  # nothing open

    def test_unsampled_sampling_tracer_yields_none(self):
        tracer = SamplingTracer(sample_every=10_000)
        assert trace_context(tracer) is None

    def test_captures_current_span_ids(self):
        tracer = Tracer()
        with tracer.request("request") as span:
            ctx = trace_context(tracer)
        assert ctx == [span.trace_id, span.span_id]
        assert trace_context(tracer) is None  # closed again


class TestWorkerTracer:
    def test_activate_none_is_untraced(self):
        tracer = WorkerTracer()
        with tracer.activate(None):
            assert tracer.live == 0
            assert not tracer.active()
            tracer.record_leaf("embed", tracer.clock())
        # The parentless leaf cannot be attributed and is dropped.
        assert tracer.drain_wire() == []

    def test_leaves_record_under_remote_parent_with_raw_clocks(self):
        clock = ManualClock(start=500.0)
        tracer = WorkerTracer(clock=clock)
        with tracer.activate([7, 42]):
            assert tracer.live == 1
            assert tracer.active()
            clock.now = 500.2
            tracer.record_leaf("embed", 500.1)
            clock.now = 500.4
            tracer.record_leaf("judge", 500.3, attrs={"passed": True})
        rows = tracer.drain_wire()
        assert [row[0] for row in rows] == ["embed", "judge"]
        for _name, trace_id, parent_id, start, end, _attrs in rows:
            assert (trace_id, parent_id) == (7, 42)
            # Raw worker-clock readings: no epoch subtraction on the wire.
            assert start > 499.0 and end > 499.0
        assert rows[1][5] == {"passed": True}
        assert tracer.drain_wire() == []  # drained

    def test_nested_activations_restore_outer_context(self):
        tracer = WorkerTracer()
        with tracer.activate([1, 10]):
            with tracer.activate([2, 20]):
                assert tracer.live == 2
                tracer.record_leaf("inner", tracer.clock())
            tracer.record_leaf("outer", tracer.clock())
        rows = tracer.drain_wire()
        assert [(row[1], row[2]) for row in rows] == [(2, 20), (1, 10)]
        assert tracer.live == 0


class TestGraftSpans:
    def test_rebases_labels_and_parents(self):
        router = Tracer()
        records = [
            ["embed", 7, 42, 10.0, 10.1, None],
            ["judge", 7, 42, 10.2, 10.5, {"passed": True}],
        ]
        epoch = router._epoch
        grafted = graft_spans(router, records, clock_offset=epoch - 10.0, shard=1)
        assert grafted == 2
        spans = router.spans()
        assert [s.name for s in spans] == ["embed", "judge"]
        for span in spans:
            assert span.trace_id == 7
            assert span.parent_id == 42
            assert span.thread_id == -2  # shard-1 lane
            assert span.attrs["shard"] == 1
        # clock_offset re-based the raw worker readings onto the router
        # timeline: 10.0 raw + (epoch - 10.0) - epoch == 0.0.
        assert spans[0].start == pytest.approx(0.0)
        assert spans[1].end == pytest.approx(0.5)
        assert spans[1].attrs == {"passed": True, "shard": 1}
        # Grafted ids are re-drawn locally and unique.
        assert len({s.span_id for s in spans}) == 2

    def test_none_tracer_or_empty_records_noop(self):
        assert graft_spans(None, [["embed", 1, 2, 0.0, 0.1, None]]) == 0
        assert graft_spans(Tracer(), []) == 0

    def test_ring_overflow_counts_dropped(self):
        router = Tracer(max_spans=2)
        records = [["embed", 1, 2, 0.0, 0.1, None]] * 4
        assert graft_spans(router, records, shard=0) == 4
        assert len(router.spans()) == 2
        assert router.dropped == 2

    def test_make_span_sink(self):
        router = Tracer()
        sink = make_span_sink(router)
        sink(3, [["embed", 1, 2, 5.0, 5.1, None]], clock_offset=router._epoch - 5.0)
        (span,) = router.spans()
        assert span.thread_id == -4
        assert span.attrs == {"shard": 3}
        assert span.start == pytest.approx(0.0)
        assert make_span_sink(None) is None


def _serve_all(engine, queries):
    async def drive():
        async with engine:
            for i, query in enumerate(queries):
                outcome = await engine.serve(query, now=i * 0.01)
                assert outcome.ok, outcome

    asyncio.run(drive())


class TestProcEngineEndToEnd:
    def test_worker_stages_join_router_request_traces(self):
        engine = build_proc_engine(
            build_remote(seed=0), seed=0, workers=2,
            io_pause_scale=0.0, supervise=False,
        )
        tracer = Tracer()
        engine.set_tracer(tracer)
        _serve_all(engine, _queries(40))
        spans = tracer.spans()
        requests = [s for s in spans if s.name == "request"]
        worker = [s for s in spans if s.name in WORKER_STAGES]
        assert len(requests) == 40
        # Every request shipped its context; every pipeline stage came back.
        counts = {}
        for span in worker:
            counts[span.name] = counts.get(span.name, 0) + 1
        # A repeated text the worker replays records one recall span in
        # place of embed / ann_search / judge.
        assert counts["recall"] > 0
        assert counts["embed"] + counts["recall"] == 40
        assert counts["ann_search"] + counts["recall"] == 40
        assert counts["judge"] > 0  # miss-path requests have no candidates
        request_ids = {s.span_id for s in requests}
        assert all(s.parent_id in request_ids for s in worker)
        # Worker spans render on synthetic shard lanes, labelled by shard.
        assert all(s.thread_id < 0 for s in worker)
        assert {s.attrs["shard"] for s in worker} == {0, 1}

    def test_clock_offsets_land_worker_spans_inside_their_requests(self):
        engine = build_proc_engine(
            build_remote(seed=0), seed=0, workers=2,
            io_pause_scale=0.0, supervise=False,
        )
        tracer = Tracer()
        engine.set_tracer(tracer)
        _serve_all(engine, _queries(40))
        spans = tracer.spans()
        by_id = {s.span_id: s for s in spans}
        worker = [s for s in spans if s.name in WORKER_STAGES]
        assert worker
        for span in worker:
            parent = by_id[span.parent_id]
            # The ping/pong midpoint estimate re-bases worker clocks onto
            # the router's timeline. Both processes read one monotonic clock,
            # so the true offset is 0 and the midpoint errs by at most half
            # the ping's round trip; a wrong offset shows up as stage spans
            # drifting outside the request that contains them.
            tolerance = engine.pool.clients[span.attrs["shard"]].clock_rtt / 2
            assert span.start >= parent.start - tolerance
            assert span.end <= parent.end + tolerance

    def test_unsampled_requests_ship_no_context_and_no_spans(self):
        engine = build_proc_engine(
            build_remote(seed=0), seed=0, workers=2,
            io_pause_scale=0.0, supervise=False,
        )
        # The 1-in-N counter samples the very first request; the other 39
        # ship untraced frames, so no worker spans come back for them.
        tracer = SamplingTracer(sample_every=1_000_000)
        engine.set_tracer(tracer)
        _serve_all(engine, _queries(40))
        spans = tracer.spans()
        (request,) = [s for s in spans if s.name == "request"]
        assert {s.trace_id for s in spans} == {request.trace_id}
        worker = [s for s in spans if s.name in WORKER_STAGES]
        assert worker and all(s.parent_id == request.span_id for s in worker)

    def test_workers_one_replays_sync_engine_stage_counts(self):
        # One shard + concurrency 1 makes the worker-side pipeline replay
        # the in-process engine's decisions exactly: grafted stage counts
        # must match the sync engine's span counts stage for stage.
        queries = _queries(60)
        sync_engine = build_asteria_engine(build_remote(seed=0), seed=0)
        sync_tracer = Tracer()
        sync_engine.set_tracer(sync_tracer)
        for i, query in enumerate(queries):
            sync_engine.handle(query, now=i * 0.01)

        proc_engine = build_proc_engine(
            build_remote(seed=0), seed=0, workers=1,
            io_pause_scale=0.0, supervise=False,
        )
        proc_tracer = Tracer()
        proc_engine.set_tracer(proc_tracer)
        _serve_all(proc_engine, queries)

        sync_counts = Counter(span.name for span in sync_tracer.spans())
        proc_counts = Counter(span.name for span in proc_tracer.spans())
        for name in ("request",) + WORKER_STAGES:
            assert proc_counts.get(name) == sync_counts.get(name), name


class TestFrontDoor:
    def test_client_trace_adopts_server_and_worker_spans(self):
        from repro.serving.proc.client import ProcClient
        from repro.serving.proc.server import ProcServer

        engine = build_proc_engine(
            build_remote(seed=0), seed=0, workers=2,
            io_pause_scale=0.0, supervise=False,
        )
        server_tracer = Tracer()
        engine.set_tracer(server_tracer)
        server = ProcServer(engine, host="127.0.0.1", port=0)
        client_tracer = Tracer()

        async def drive():
            await server.start()
            client = await ProcClient.connect(
                "127.0.0.1", server.port, tracer=client_tracer
            )
            try:
                for i, query in enumerate(_queries(12, population=4)):
                    response = await client.serve(query, now=i * 0.01)
                    assert response["status"] == "ok"
            finally:
                await client.aclose()
                await server.shutdown()

        asyncio.run(drive())
        roots = [s for s in client_tracer.spans() if s.name == "client_request"]
        assert len(roots) == 12
        root_traces = {s.trace_id for s in roots}
        # The server adopted the shipped context: the router's request spans
        # and the grafted worker stages all carry the *client's* trace ids.
        server_spans = server_tracer.spans()
        requests = [s for s in server_spans if s.name == "request"]
        worker = [s for s in server_spans if s.name in WORKER_STAGES]
        assert len(requests) == 12
        assert {s.trace_id for s in requests} == root_traces
        assert worker and all(s.trace_id in root_traces for s in worker)
        root_ids = {s.span_id for s in roots}
        assert all(s.parent_id in root_ids for s in requests)


class TestReplicationLink:
    def test_apply_diff_parents_under_peer_repl_sync(self):
        from repro.core.config import AsteriaConfig
        from repro.store.replication import ReplicaNode
        from repro.store.replnet import replicate_session

        def make_node(node_id):
            engine = build_asteria_engine(
                build_remote(seed=11),
                config=AsteriaConfig(capacity_items=64),
                seed=11,
            )
            return engine, ReplicaNode(node_id, engine.cache)

        sock_a, sock_b = socket.socketpair()
        engine_a, node_a = make_node("A")
        engine_b, node_b = make_node("B")
        tracers = {"a": Tracer(), "b": Tracer()}
        reports = {}

        def run(name, node, engine, sock, offset):
            queries = [
                Query(f"replicated fact number {(i + offset) % 8} of the realm",
                      fact_id=f"F{(i + offset) % 8}")
                for i in range(24)
            ]
            workload = (
                (lambda now, query=query: engine.handle(query, now=now))
                for query in queries
            )
            reports[name] = replicate_session(
                node, sock, workload=workload, sync_interval=0.05,
                tracer=tracers[name],
            )

        threads = [
            threading.Thread(target=run, args=("a", node_a, engine_a, sock_a, 0)),
            threading.Thread(target=run, args=("b", node_b, engine_b, sock_b, 4)),
        ]
        for thread in threads:
            thread.start()
        for thread in threads:
            thread.join(timeout=60)
        assert set(reports) == {"a", "b"}

        for mine, theirs in (("a", "b"), ("b", "a")):
            syncs = [s for s in tracers[mine].spans() if s.name == "repl_sync"]
            applies = [
                s for s in tracers[theirs].spans() if s.name == "apply_diff"
            ]
            assert syncs and applies
            # Every apply span hangs under one of the sender's repl_sync
            # spans: the context crossed the socket inside the diff message.
            sync_ids = {(s.trace_id, s.span_id) for s in syncs}
            sender_id = {"a": "A", "b": "B"}[mine]
            for span in applies:
                assert (span.trace_id, span.parent_id) in sync_ids
                assert span.attrs["from"] == sender_id
                assert span.attrs["records"] >= 0


class ManualClock:
    def __init__(self, start: float = 0.0) -> None:
        self.now = start

    def __call__(self) -> float:
        return self.now
