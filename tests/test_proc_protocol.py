"""Frame protocol and wire-conversion tests for the multi-process tier.

Covers the length-prefixed framing (round trips, clean EOF, truncation,
the oversize cap, a poll timeout inside a frame) over real socketpairs, the pickle codec, and the
wire-structure conversions the router and workers exchange.
"""

import socket
import struct

import numpy as np
import pytest

from repro.core.types import FetchResult, Query
from repro.serving.proc import wire
from repro.serving.proc.protocol import (
    MAX_FRAME,
    FrameError,
    FrameReader,
    PickleCodec,
    encode_frame,
    send_frame,
)


def test_frame_round_trip_over_socketpair():
    left, right = socket.socketpair()
    try:
        payloads = [b"", b"x", b"hello world" * 1000, bytes(range(256))]
        for payload in payloads:
            send_frame(left, payload)
        reader = FrameReader(right)
        for payload in payloads:
            assert reader.read() == payload
        assert reader.idle
    finally:
        left.close()
        right.close()


def test_frame_clean_eof_returns_none():
    left, right = socket.socketpair()
    try:
        send_frame(left, b"last")
        left.close()
        reader = FrameReader(right)
        assert reader.read() == b"last"
        assert reader.read() is None
    finally:
        right.close()


def test_frame_truncated_mid_payload_raises():
    left, right = socket.socketpair()
    try:
        frame = encode_frame(b"abcdefgh")
        left.sendall(frame[: len(frame) - 3])  # header + partial payload
        left.close()
        with pytest.raises(FrameError):
            FrameReader(right).read()
    finally:
        right.close()


def test_frame_oversize_header_raises_without_allocating():
    left, right = socket.socketpair()
    try:
        left.sendall(struct.pack(">I", MAX_FRAME + 1))
        left.close()
        with pytest.raises(FrameError):
            FrameReader(right).read()
    finally:
        right.close()


@pytest.mark.parametrize("cut", [2, 4, 502])  # in the header, after it, mid-payload
def test_reader_keeps_a_frame_that_straddles_a_timeout(cut):
    # The exact-read loop this replaced dropped the bytes it had consumed
    # when the poll timeout fired, then parsed b"xxxx" as the next length.
    left, right = socket.socketpair()
    try:
        right.settimeout(0.05)
        reader = FrameReader(right)
        frame = encode_frame(b"x" * 1000)
        left.sendall(frame[:cut])
        with pytest.raises(socket.timeout):
            reader.read()
        assert not reader.idle
        left.sendall(frame[cut:] + encode_frame(b"next"))
        assert reader.read() == b"x" * 1000
        assert reader.ready  # pipelined behind it, drained by the same read
        assert reader.read() == b"next"
        assert reader.idle
    finally:
        left.close()
        right.close()


def test_frame_truncated_mid_header_raises():
    left, right = socket.socketpair()
    try:
        left.sendall(b"\x00\x00")
        left.close()
        with pytest.raises(FrameError):
            FrameReader(right).read()
    finally:
        right.close()


def test_encode_frame_rejects_oversize_payload():
    class Huge(bytes):
        def __len__(self):
            return MAX_FRAME + 1

    with pytest.raises(FrameError):
        encode_frame(Huge())


def test_pickle_codec_round_trips_wire_structures():
    codec = PickleCodec()
    message = [3, "lookup_batch", [[["q", None, None, 0.5, 1.0, {}], 0.25]], False]
    assert codec.loads(codec.dumps(message)) == message


# -- wire conversions ---------------------------------------------------------
def test_query_wire_round_trip():
    query = Query(
        "what is the capital", tool="search", fact_id="F1", metadata={"k": "v"}
    )
    back = wire.query_from_wire(wire.query_to_wire(query))
    assert back.text == query.text
    assert back.tool == query.tool
    assert back.fact_id == query.fact_id
    assert dict(back.metadata) == {"k": "v"}


def test_fetch_wire_round_trip():
    fetch = FetchResult(
        result="payload", latency=0.125, service_latency=0.1, cost=0.002, retries=1
    )
    back = wire.fetch_from_wire(wire.fetch_to_wire(fetch))
    assert back == fetch


def test_stats_tuples_aggregate_exactly():
    tuples = [[3, 1, 0, 2, 0, 10], [4, 0, 1, 0, 0, 7]]
    stats = wire.stats_from_tuples(tuples)
    assert stats.inserts == 7
    assert stats.evictions == 1
    assert stats.expirations == 1
    assert stats.rejected_duplicates == 2
    assert wire.usage_from_tuples(tuples) == 17


def test_element_wire_drops_embedding_and_arena_slot():
    from repro.core.element import SemanticElement

    element = SemanticElement(
        element_id=5,
        key="k",
        truth_key="tk",
        value="v",
        embedding=np.ones(8, dtype=np.float32),
        created_at=0.0,
        expires_at=10.0,
    )
    back = wire.element_from_wire(wire.element_to_wire(element))
    assert back.element_id == 5
    assert back.truth_key == "tk"
    assert back.value == "v"
    assert back.arena_slot is None
    assert back.embedding.size == 0  # vectors never cross the wire
