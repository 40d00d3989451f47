"""The proc tier's hand-off budget, counted rather than timed.

A socket hit is worth having only if the machinery around the lookup stays
small, so these tests pin that machinery by count: tasks and timers the
router creates per request (a counting task factory and a wrapped
``loop.call_at`` — ``call_later``, ``sleep`` and ``timeout`` all go through
it), frames per loop tick of lookups, ``TCP_NODELAY`` on both ends of every
link, and a worker loop whose poll timeout lands in the middle of a frame.
"""

import asyncio
import socket
import threading

from repro.core import AsteriaConfig, Query
from repro.factory import StackSpec, build_proc_engine, build_remote
from repro.serving.proc.client import ProcClient
from repro.serving.proc.pool import WorkerSpec
from repro.serving.proc.protocol import (
    FrameReader,
    PickleCodec,
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


def test_same_tick_lookups_to_one_shard_share_one_frame():
    frames = []

    class RecordingCodec(PickleCodec):
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
            results = await asyncio.gather(*(pool.lookup(q, 0.0) for q in mine))
            assert len(results) == n
            # Snapshot now: the shutdown op on the way out is a frame too.
            return [(op, len(body[0])) for _, op, body in frames], counts.timers

    sent, timers = asyncio.run(drive(_engine(), 7))
    assert sent == [("lookup_batch", 7)]
    assert timers == 0

    # A real window still frames by batch_max first, then by its timer.
    sent, timers = asyncio.run(drive(_engine(batch_window=0.005, batch_max=4), 6))
    assert sent == [("lookup_batch", 4), ("lookup_batch", 2)]
    assert timers >= 1


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
                _nodelay(client._writer.get_extra_info("socket"))
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
    codec = PickleCodec()
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
