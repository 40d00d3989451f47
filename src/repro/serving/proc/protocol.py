"""Wire framing for the multi-process serving tier.

Every message between the router, the shard workers, and serve clients is
one *frame*:

.. code-block:: text

    +----------------+---------------------------+
    | length: u32 BE | payload: length bytes     |
    +----------------+---------------------------+

The payload is a :class:`PickleCodec`-serialized plain structure (dicts,
lists, strings, numbers, bytes, None) — see :mod:`repro.serving.proc.wire`
for the conversions. Every endpoint owns its codec *object* and calls
``dumps``/``loads`` through it, so a measurement harness can shadow one
endpoint's serialization without touching the others.

Frames are capped at :data:`MAX_FRAME` bytes; an oversized or truncated
frame raises :class:`FrameError` rather than desynchronizing the stream.

Trace context rides inside existing frame bodies, never as new frame
types: lookup/insert items may carry an optional trailing ``[trace_id,
parent_span_id]`` element, worker replies may append a fifth element of
completed span records, serve requests may carry a fourth, and the hello
handshake exchanges one ``clock`` ping (request id -1) so the router can
estimate each worker's monotonic-clock offset. Readers index defensively
(``len(frame) > 4``), so untraced traffic is byte-identical to the
pre-tracing protocol and old/new peers interoperate.
Both synchronous (worker processes, blocking sockets) and asyncio (router,
serve clients) frame I/O live here so there is exactly one encoding of the
length prefix in the codebase.
"""

from __future__ import annotations

import asyncio
import pickle
import socket
import struct

#: Hard per-frame cap (64 MiB): far above any real frame (a full lookup
#: batch is a few KB), low enough that a corrupt length prefix fails fast
#: instead of attempting a giant allocation.
MAX_FRAME = 64 * 1024 * 1024

_LEN = struct.Struct(">I")


class FrameError(RuntimeError):
    """A malformed, oversized, or truncated frame."""


class PickleCodec:
    """The wire serializer: stdlib pickle at the highest protocol."""

    def dumps(self, obj) -> bytes:
        return pickle.dumps(obj, protocol=pickle.HIGHEST_PROTOCOL)

    def loads(self, data: bytes):
        return pickle.loads(data)


# -- synchronous frame I/O (worker processes, blocking sockets) ---------------
def encode_frame(payload: bytes) -> bytes:
    """Length prefix + payload as one bytes object (for a single send)."""
    if len(payload) > MAX_FRAME:
        raise FrameError(f"frame of {len(payload)} bytes exceeds cap {MAX_FRAME}")
    return _LEN.pack(len(payload)) + payload


def send_frame(sock: socket.socket, payload: bytes) -> None:
    """Send one frame over a blocking socket."""
    sock.sendall(encode_frame(payload))


def _recv_exact(sock: socket.socket, n: int) -> bytes:
    """Read exactly ``n`` bytes; b"" at clean EOF on a frame boundary."""
    chunks = []
    remaining = n
    while remaining:
        chunk = sock.recv(min(remaining, 1 << 20))
        if not chunk:
            if remaining == n:
                return b""
            raise FrameError(
                f"connection closed mid-frame ({n - remaining}/{n} bytes read)"
            )
        chunks.append(chunk)
        remaining -= len(chunk)
    return b"".join(chunks)


def recv_frame(sock: socket.socket) -> bytes | None:
    """Read one frame from a blocking socket; None at clean EOF.

    ``socket.timeout`` propagates (the worker loop uses it to poll its stop
    flag between frames).
    """
    header = _recv_exact(sock, _LEN.size)
    if not header:
        return None
    (length,) = _LEN.unpack(header)
    if length > MAX_FRAME:
        raise FrameError(f"incoming frame of {length} bytes exceeds cap {MAX_FRAME}")
    if length == 0:
        return b""
    payload = _recv_exact(sock, length)
    if not payload and length:
        raise FrameError("connection closed between header and payload")
    return payload


class FrameSplitter:
    """Incremental decoder for a byte stream of concatenated frames.

    Feed arbitrary chunks (network reads, an in-memory simulated link) and
    get back complete payloads; partial frames are buffered until the rest
    arrives. Used by the replication layer, whose simulated WAN links carry
    real frame-protocol bytes.

    >>> splitter = FrameSplitter()
    >>> splitter.feed(encode_frame(b"a") + encode_frame(b"bb")[:3])
    [b'a']
    >>> splitter.feed(encode_frame(b"bb")[3:])
    [b'bb']
    """

    def __init__(self) -> None:
        self._buffer = bytearray()

    def feed(self, data: bytes) -> list[bytes]:
        """Append ``data``; return every now-complete frame payload."""
        self._buffer.extend(data)
        payloads: list[bytes] = []
        while True:
            if len(self._buffer) < _LEN.size:
                break
            (length,) = _LEN.unpack_from(self._buffer)
            if length > MAX_FRAME:
                raise FrameError(
                    f"incoming frame of {length} bytes exceeds cap {MAX_FRAME}"
                )
            end = _LEN.size + length
            if len(self._buffer) < end:
                break
            payloads.append(bytes(self._buffer[_LEN.size:end]))
            del self._buffer[:end]
        return payloads

    @property
    def pending_bytes(self) -> int:
        """Bytes buffered awaiting the rest of a frame."""
        return len(self._buffer)


# -- asyncio frame I/O (router, serve clients) --------------------------------
def write_frame(writer: asyncio.StreamWriter, payload: bytes) -> None:
    """Queue one frame on an asyncio writer (caller drains as needed)."""
    writer.write(encode_frame(payload))


async def read_frame(reader: asyncio.StreamReader) -> bytes | None:
    """Read one frame from an asyncio reader; None at clean EOF."""
    try:
        header = await reader.readexactly(_LEN.size)
    except asyncio.IncompleteReadError as exc:
        if not exc.partial:
            return None
        raise FrameError("connection closed mid-header") from exc
    (length,) = _LEN.unpack(header)
    if length > MAX_FRAME:
        raise FrameError(f"incoming frame of {length} bytes exceeds cap {MAX_FRAME}")
    if length == 0:
        return b""
    try:
        return await reader.readexactly(length)
    except asyncio.IncompleteReadError as exc:
        raise FrameError("connection closed mid-frame") from exc
