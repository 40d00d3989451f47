"""The one pipelined frame channel both proc clients speak, and the hello
handshake that precedes a worker's channel.

A reply the channel cannot name a waiter from fails the link instead of
resolving anything; a lost link fails every pending waiter, with one shared
exception on a shard link (the engine charges a shard once per object) and
one per waiter on the front door's client (tracebacks stay apart). All run
on socketpairs or a stub server: no worker process.
"""

import asyncio
import socket

import pytest

from repro.core import AsteriaConfig
from repro.factory import StackSpec
from repro.serving.proc.client import ProcClient, ProcTransportError
from repro.serving.proc.pool import ShardClient, WorkerError, WorkerPool, WorkerSpec
from repro.serving.proc.protocol import JsonCodec, encode_frame, read_frame, write_frame
from repro.serving.proc.worker import HELLO_MAGIC

CODEC = JsonCodec()


def _pool() -> WorkerPool:
    """A one-shard pool that is never launched: no worker process."""
    spec = StackSpec(AsteriaConfig(capacity_items=8), seed=0).shard(0, 1)
    return WorkerPool([WorkerSpec(0, 1, spec)])


def test_a_malformed_reply_fails_the_client_waiter():
    # First connection: a non-bool ``ok``; the client re-dials once, and the
    # second connection answers under a non-int id. Neither may resolve.
    bad_replies = [lambda rid: [rid, "yes", "x"], lambda rid: ["a", True, "x"]]

    async def drive():
        connections = []

        async def handle(reader, writer):
            reply = bad_replies[len(connections)]
            connections.append(writer)
            payload = await read_frame(reader)
            if payload is not None:
                request_id = CODEC.loads(payload)[0]
                write_frame(writer, CODEC.dumps(reply(request_id)))
                await writer.drain()
            await read_frame(reader)  # hold the link until the client drops it
            writer.close()

        server = await asyncio.start_server(handle, "127.0.0.1", 0)
        port = server.sockets[0].getsockname()[1]
        client = await ProcClient.connect("127.0.0.1", port)
        try:
            with pytest.raises(ProcTransportError, match="malformed reply"):
                await client.call("ping")
            assert client.reconnects == 1
            assert len(connections) == 2
        finally:
            await client.aclose()
            server.close()
            await server.wait_closed()

    asyncio.run(drive())


async def _fail_three_pending(open_client):
    """Open a client on one end of a socketpair, leave three calls pending,
    close the peer; return what each call raised."""
    near, far = socket.socketpair()
    client = await open_client(near)
    peer_reader, peer_writer = await asyncio.open_connection(sock=far)
    try:
        calls = [asyncio.ensure_future(client.call("ping")) for _ in range(3)]
        for _ in calls:  # all three are on the wire, so all three pend
            assert await read_frame(peer_reader) is not None
        peer_writer.close()
        return await asyncio.gather(*calls, return_exceptions=True)
    finally:
        await client.aclose()


def test_a_lost_shard_link_fails_every_waiter_with_one_shared_error():
    async def open_client(sock):
        client = ShardClient(3, sock, _pool())
        await client.attach()
        return client

    errors = asyncio.run(_fail_three_pending(open_client))
    assert all(isinstance(error, WorkerError) for error in errors)
    assert errors[0] is errors[1] is errors[2]
    assert errors[0].shard_id == 3


def test_a_lost_client_link_fails_each_waiter_with_its_own_error():
    async def open_client(sock):
        return ProcClient(*await asyncio.open_connection(sock=sock))

    errors = asyncio.run(_fail_three_pending(open_client))
    assert all(isinstance(error, ProcTransportError) for error in errors)
    assert len({id(error) for error in errors}) == 3


STATS = [0, 0, 0, 0, 0, 0]
GOOD_HELLO = ["hello", HELLO_MAGIC, 0, 1234, None]
GOOD_PONG = [-1, True, 12.5, STATS]


@pytest.mark.parametrize(
    "hello, pong, what",
    [
        ({"hello": HELLO_MAGIC}, GOOD_PONG, "hello"),  # an object, not a list
        (["hello", HELLO_MAGIC], GOOD_PONG, "hello"),  # two fields of five
        (GOOD_HELLO, [-1, True, "noon", STATS], "clock pong"),  # a reading, not a number
    ],
)
def test_a_malformed_hello_is_a_worker_error_naming_the_frame(hello, pong, what):
    pool = _pool()
    listener = socket.socket(socket.AF_INET, socket.SOCK_STREAM)
    listener.bind(("127.0.0.1", 0))
    listener.listen(1)
    worker = socket.create_connection(listener.getsockname(), timeout=5.0)
    try:
        # The fake worker says everything up front; the router's clock ping
        # waits unread in its buffer.
        worker.sendall(encode_frame(CODEC.dumps(hello)) + encode_frame(CODEC.dumps(pong)))
        with pytest.raises(WorkerError, match=f"malformed {what}: {what} frame"):
            pool._accept_hello(listener)
    finally:
        worker.close()
        listener.close()
