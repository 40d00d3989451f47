"""The proc tier's hand-off budget, counted rather than timed.

A socket hit is worth having only if the machinery around the lookup stays
small, so these tests pin that machinery by count: tasks and timers the
router creates per request (a counting task factory and a wrapped
``loop.call_at`` — ``call_later``, ``sleep`` and ``timeout`` all go through
it), routing keys it computes per hit and miss, frames per loop tick of
lookups, ``TCP_NODELAY`` on both ends of every link, a worker loop
whose poll timeout lands in the middle of a frame, and a worker loop that
refuses a bad request frame and reads on.
"""

import asyncio
import socket
import threading

from repro.core import AsteriaConfig, Query, records, sharding
from repro.core.cache import content_key
from repro.factory import StackSpec, build_proc_engine, build_remote, build_semantic_cache
from repro.serving.proc.client import ProcClient
from repro.serving.proc.pool import WorkerSpec
from repro.serving.proc.protocol import (
    FrameReader,
    JsonCodec,
    connect_link,
    encode_frame,
)
from repro.serving.proc.server import ProcServer
from repro.serving.proc.worker import _ShardServer, serve_frames
from repro.store import replnet


class _Counts:
    """Tasks and timers created on the running loop since ``reset()``."""

    def __init__(self, loop) -> None:
        self.tasks = self.timers = 0
        call_at = loop.call_at

        def task_factory(loop, coro, **kwargs):
            self.tasks += 1
            return asyncio.Task(coro, loop=loop, **kwargs)

        def counting_call_at(*args, **kwargs):
            self.timers += 1
            return call_at(*args, **kwargs)

        loop.set_task_factory(task_factory)
        loop.call_at = counting_call_at

    def reset(self) -> None:
        self.tasks = self.timers = 0


def _nodelay(sock) -> int:
    return sock.getsockopt(socket.IPPROTO_TCP, socket.TCP_NODELAY)


def _engine(**kwargs):
    # No supervisor: its heartbeat's timers and ping tasks are background
    # work, not part of any request's budget.
    return build_proc_engine(
        build_remote(seed=0), seed=0, workers=2, supervise=False, **kwargs
    )


def test_router_work_per_request_is_one_task_and_no_timer():
    engine = _engine()
    server = ProcServer(engine, host="127.0.0.1", port=0)
    hot = Query("the one fact every caller asks for", fact_id="HOT")
    cold = Query("a fact nobody has asked for yet", fact_id="COLD")

    async def drive():
        await server.start()
        client = await ProcClient.connect("127.0.0.1", server.port)
        try:
            await client.serve(hot, now=0.0)  # miss, admitted
            counts = _Counts(asyncio.get_running_loop())
            hits = engine.metrics.hits
            for i in range(20):
                await client.serve(hot, now=0.01 * (i + 1))
            assert engine.metrics.hits == hits + 20
            per_hit = (counts.tasks / 20, counts.timers)
            counts.reset()
            misses = engine.metrics.misses
            await client.serve(cold, now=1.0)
            assert engine.metrics.misses == misses + 1
            return per_hit, counts.tasks
        finally:
            await client.aclose()
            await server.shutdown()

    (tasks_per_hit, timers), tasks_per_miss = asyncio.run(drive())
    # The request's own task; no read task, no distribute task, no timer.
    assert tasks_per_hit <= 1
    assert timers == 0
    # ... plus the single-flight leader's flight; no fetch wrapper.
    assert tasks_per_miss <= 2


def test_a_hit_routes_once_and_a_miss_twice(monkeypatch):
    # The content key tokenises the text, so the router computes it once per
    # pool operation: the lookup's shard serves its breaker and its frame.
    keys = []

    def counting_content_key(text, empty=None):
        keys.append(text)
        return content_key(text, empty)

    monkeypatch.setattr(sharding, "content_key", counting_content_key)
    engine = _engine()
    hot = Query("the one fact every caller asks for", fact_id="HOT")

    async def drive():
        async with engine:
            await engine.serve(hot, now=0.0)
            per_miss = len(keys)
            keys.clear()
            outcome = await engine.serve(hot, now=0.01)
            assert outcome.response.lookup.status == "hit"
            return per_miss, len(keys)

    assert asyncio.run(drive()) == (2, 1)


def test_same_tick_lookups_to_one_shard_share_one_frame():
    frames = []

    class RecordingCodec(JsonCodec):
        def dumps(self, obj):
            frames.append(obj)
            return super().dumps(obj)

    async def drive(engine, n):
        async with engine:
            pool = engine.pool
            queries = [Query(f"hand-off question number {i}") for i in range(200)]
            mine = [q for q in queries if pool.shard_for(q.text) == 0][:n]
            assert len(mine) == n
            pool.clients[0].codec = RecordingCodec()
            frames.clear()
            counts = _Counts(asyncio.get_running_loop())
            results = await asyncio.gather(*(pool.lookup(q, 0.0, 0) for q in mine))
            assert len(results) == n
            # Snapshot now: the shutdown op on the way out is a frame too.
            return [(op, len(body[0])) for _, op, body in frames], counts.timers

    sent, timers = asyncio.run(drive(_engine(), 7))
    assert sent == [("lookup_batch", 7)]
    assert timers == 0


def test_a_lookup_frame_decides_item_by_item_like_scalar_lookups():
    # One frame mixes hits, a paraphrase, a miss, an item whose entry expires
    # between two items' clocks, and traced and untraced items. Each reply
    # record must be what the scalar lookup gives on a twin cache.
    spec = StackSpec(AsteriaConfig(capacity_items=8, default_ttl=5.0), seed=0).shard(0, 1)
    server = _ShardServer(WorkerSpec(0, 1, spec))
    twin = build_semantic_cache(spec)
    remote = build_remote(seed=0)
    facts = [Query(f"the height of mountain number {i}", fact_id=f"M{i}") for i in range(4)]
    for i, query in enumerate(facts):
        fetch = remote.fetch_at(query, 0.0)
        arrival = 0.0 if i else 3.0  # the first one outlives the others
        server.dispatch(
            "insert",
            [records.query_record(query), records.fetch_record(fetch), arrival],
        )
        twin.insert(query, fetch, arrival)
    frame = [
        (facts[1], 1.0, ["t1", 11]),
        (Query("mountain number 2 height", fact_id="M2"), 2.0, None),
        (Query("a fact nobody has asked for yet", fact_id="X"), 2.0, ["t2", 12]),
        (facts[3], 4.0, None),
        (facts[3], 6.0, ["t3", 13]),  # its TTL ran out at 5.0
        (facts[0], 6.0, None),  # admitted at 3.0, lives to 8.0
    ]
    items = [
        [records.query_record(q), now] + ([ctx] if ctx else []) for q, now, ctx in frame
    ]
    replies = server.dispatch("lookup_batch", [items, spec.config.tau_lsm])
    expected = [records.sine_record(twin.lookup(q, now)) for q, now, _ in frame]
    assert replies == expected
    matched = [reply["match"] is not None for reply in replies]
    assert matched == [True, True, False, True, False, True]
    assert records.shard_stats_row(twin.stats, twin.usage()) == server.stats_tuple()
    # Each traced item's stages parent under its own request, none under another's.
    parents = {(row[0], row[2]) for row in server.tracer.drain_wire()}
    assert {"embed", "ann_search"} <= {name for name, parent in parents if parent == 11}
    assert {parent for _, parent in parents} == {11, 12, 13}


def test_every_link_socket_runs_without_nagle():
    listener = socket.socket(socket.AF_INET, socket.SOCK_STREAM)
    try:
        listener.bind(("127.0.0.1", 0))
        listener.listen(1)
        sock = connect_link("127.0.0.1", listener.getsockname()[1], 5.0, 0.25)
        try:
            assert _nodelay(sock) == 1
            assert sock.gettimeout() == 0.25
        finally:
            sock.close()
    finally:
        listener.close()

    # The replication pair dials and accepts through the same setup.
    server = replnet.open_listener("127.0.0.1", 0)
    dialed = replnet.connect_peer("127.0.0.1", server.getsockname()[1])
    accepted = replnet.accept_peer(server, timeout=5.0)
    try:
        assert _nodelay(dialed) == 1 and _nodelay(accepted) == 1
    finally:
        dialed.close()
        accepted.close()

    # The router's end of each worker link, before and after asyncio owns it.
    engine = _engine()
    assert [_nodelay(client._sock) for client in engine.pool.clients] == [1, 1]

    async def drive():
        async with engine:
            return [
                _nodelay(client._channel._writer.get_extra_info("socket"))
                for client in engine.pool.clients
            ]

    assert asyncio.run(drive()) == [1, 1]


class _TimeoutSignallingSocket:
    """A socket that reports each ``recv`` timeout before re-raising it."""

    def __init__(self, sock, timed_out: threading.Event) -> None:
        self._sock = sock
        self._timed_out = timed_out

    def recv_into(self, buffer):
        try:
            return self._sock.recv_into(buffer)
        except socket.timeout:
            self._timed_out.set()
            raise

    def sendall(self, data):
        return self._sock.sendall(data)


def test_worker_loop_survives_a_poll_timeout_inside_a_frame():
    spec = StackSpec(AsteriaConfig(capacity_items=8), seed=0).shard(0, 1)
    server = _ShardServer(WorkerSpec(0, 1, spec))
    codec = JsonCodec()
    router, worker = socket.socketpair()
    worker.settimeout(0.05)
    timed_out = threading.Event()
    loop = threading.Thread(
        target=serve_frames,
        args=(
            server,
            _TimeoutSignallingSocket(worker, timed_out),
            codec,
            {"flag": False},
        ),
    )
    loop.start()
    try:
        router.settimeout(5.0)
        # A 1 000-byte frame whose halves straddle at least one poll timeout
        # (on an exact-read loop the second half was parsed as a length:
        # "incoming frame of 2021161080 bytes"), then a frame right behind it.
        frame = encode_frame(codec.dumps([0, "ping", "x" * 1000]))
        router.sendall(frame[: len(frame) // 2])
        assert timed_out.wait(5.0)
        router.sendall(frame[len(frame) // 2 :])
        router.sendall(encode_frame(codec.dumps([1, "ping", None])))
        replies = FrameReader(router)
        assert codec.loads(replies.read())[:3] == [0, True, "pong"]
        assert codec.loads(replies.read())[:3] == [1, True, "pong"]
    finally:
        router.close()  # EOF ends the loop
        loop.join(5.0)
        worker.close()
    assert not loop.is_alive()


def test_worker_refuses_a_bad_request_frame_and_reads_on():
    # Each frame is refused unanswered and counted, and the loop serves the
    # next request: the router's one link stays up.
    spec = StackSpec(AsteriaConfig(capacity_items=8), seed=0).shard(0, 1)
    server = _ShardServer(WorkerSpec(0, 1, spec))
    codec = JsonCodec()
    router, worker = socket.socketpair()
    worker.settimeout(0.05)
    loop = threading.Thread(
        target=serve_frames, args=(server, worker, codec, {"flag": False})
    )
    loop.start()
    bad_frames = [b"not json", b'[0, "ping"]', b'{"op": "ping"}', b'"abc"']
    try:
        router.settimeout(5.0)
        replies = FrameReader(router)
        for count, bad in enumerate(bad_frames, start=1):
            router.sendall(
                encode_frame(bad)
                + encode_frame(codec.dumps([1, "ping", None]))
                + encode_frame(codec.dumps([2, "stats", None]))
            )
            pong, stats = codec.loads(replies.read()), codec.loads(replies.read())
            # In order: a reply to the bad frame would have come first.
            assert pong[:3] == [1, True, "pong"], bad
            assert stats[:2] == [2, True], bad
            assert stats[2]["protocol_errors"] == count, bad
            assert loop.is_alive(), bad
    finally:
        router.close()  # EOF ends the loop
        loop.join(5.0)
        worker.close()
    assert not loop.is_alive()
