"""What a listener does with bytes it should not trust.

Both public listeners, the ``repro serve`` front door (:class:`ProcServer`)
and the replication session, decode frames with :class:`JsonCodec` and check
every record. A frame that is not JSON, not the expected shape, or carries a
record that fails its check closes that one connection and is counted in
``protocol_errors``; nothing in it is ever executed, and the next,
well-formed peer is served as before.
"""

import asyncio
import os
import pickle
import socket
import threading

import pytest

from repro.core import Query
from repro.core.config import AsteriaConfig
from repro.factory import build_asteria_engine, build_proc_engine, build_remote
from repro.serving.proc.client import ProcClient
from repro.serving.proc.protocol import (
    FrameReader,
    JsonCodec,
    encode_frame,
    read_frame,
    write_frame,
)
from repro.serving.proc.server import ProcServer
from repro.store.replication import ReplicaNode
from repro.store.replnet import replicate_session


class _MakesDirectory:
    """Pickles to a call of ``os.mkdir(path)``: unpickling it runs code."""

    def __init__(self, path) -> None:
        self.path = str(path)

    def __reduce__(self):
        return (os.mkdir, (self.path,))


def _bad_frames(marker):
    codec = JsonCodec()
    return {
        "pickle": pickle.dumps(_MakesDirectory(marker)),
        "not_json": b"\x00not json",
        "wrong_shape": codec.dumps({"op": "serve"}),
        "bad_record": codec.dumps([0, "serve", [{"text": "q"}, 0.0, None]]),
    }


def test_front_door_closes_and_counts_a_bad_frame_and_serves_the_next(tmp_path):
    marker = tmp_path / "executed"
    frames = _bad_frames(marker)

    async def drive():
        engine = build_proc_engine(
            build_remote(seed=0), config=AsteriaConfig(capacity_items=16), seed=0,
            workers=1,
        )
        server = ProcServer(engine)
        await server.start()
        try:
            for count, payload in enumerate(frames.values(), start=1):
                reader, writer = await asyncio.open_connection("127.0.0.1", server.port)
                write_frame(writer, payload)
                await writer.drain()
                # The server hangs up without a reply frame.
                assert await asyncio.wait_for(read_frame(reader), 10.0) is None
                writer.close()
                assert server.protocol_errors == count
            client = await ProcClient.connect("127.0.0.1", server.port)
            try:
                query = Query("height of mount everest", fact_id="EV")
                outcome = await client.serve(query)
                health = await client.health()
            finally:
                await client.aclose()
        finally:
            await server.shutdown()
        return outcome, health

    outcome, health = asyncio.run(drive())
    assert not marker.exists()
    assert outcome["status"] == "ok"
    assert health["protocol_errors"] == len(frames)


def _node(node_id):
    engine = build_asteria_engine(
        build_remote(seed=11), config=AsteriaConfig(capacity_items=64), seed=11
    )
    return engine, ReplicaNode(node_id, engine.cache)


@pytest.mark.parametrize("kind", ["pickle", "not_json", "wrong_shape", "bad_diff"])
def test_replication_session_closes_and_counts_a_bad_frame(tmp_path, kind):
    marker = tmp_path / "executed"
    frames = _bad_frames(marker)
    frames["bad_diff"] = JsonCodec().dumps(
        {"op": "diff", "from": "B", "sent_at": 0.0, "records": [{"truth_key": "F"}]}
    )
    _, node_a = _node("A")
    mine, peer = socket.socketpair()
    try:
        peer.sendall(encode_frame(frames[kind]))
        report = replicate_session(node_a, mine, settle_timeout=5.0)
        # The session said hello, then hung up on the bad frame.
        peer.settimeout(5.0)
        replies = FrameReader(peer)
        assert JsonCodec().loads(replies.read())["op"] == "hello"
        assert replies.read() is None
    finally:
        peer.close()
    assert not marker.exists()
    assert report["protocol_errors"] == 1
    assert report["agreement"] is None
    assert node_a.stats()["rejected_diffs"] == (1 if kind == "bad_diff" else 0)

    # The same node then replicates with a well-formed peer as before.
    engine_b, node_b = _node("B")
    sock_a, sock_b = socket.socketpair()
    queries = [
        Query(f"replicated fact number {i} of the realm", fact_id=f"F{i}")
        for i in range(8)
    ]
    reports = {}

    def run(name, node, sock, workload=None):
        reports[name] = replicate_session(
            node, sock, workload=workload, sync_interval=0.05
        )

    steps = (lambda now, q=q: engine_b.handle(q, now=now) for q in queries)
    threads = [
        threading.Thread(target=run, args=("a", node_a, sock_a)),
        threading.Thread(target=run, args=("b", node_b, sock_b, steps)),
    ]
    for thread in threads:
        thread.start()
    for thread in threads:
        thread.join(timeout=60)
    assert not any(thread.is_alive() for thread in threads)
    assert reports["a"]["protocol_errors"] == 0
    assert reports["a"]["agreement"]["agreement"] == 1.0
    assert len(node_a.cache) == len(engine_b.cache) > 0
