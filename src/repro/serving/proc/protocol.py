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

Blocking (workers, replication sessions: :class:`FrameReader` over a
:func:`link_socket`) and asyncio (router, serve clients) frame I/O both live
here, so the length prefix is encoded in exactly one place.
"""

from __future__ import annotations

import asyncio
import pickle
import socket
import struct
from collections import deque

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


def link_socket(sock: socket.socket, timeout: float | None = None) -> socket.socket:
    """The one place a blocking link socket (router<->worker, replica<->
    replica) is set up: the ``recv`` timeout its read loop polls with, and
    ``TCP_NODELAY`` — with Nagle on, a pipelined reply sits in the kernel
    until the peer's *next* frame happens to carry the ACK."""
    sock.setsockopt(socket.IPPROTO_TCP, socket.TCP_NODELAY, 1)
    sock.settimeout(timeout)
    return sock


def connect_link(
    host: str, port: int, connect_timeout: float, timeout: float | None = None
) -> socket.socket:
    """Dial a frame link; the connected socket is :func:`link_socket`-ed."""
    return link_socket(
        socket.create_connection((host, port), timeout=connect_timeout), timeout
    )


class FrameSplitter:
    """Incremental decoder for a byte stream of concatenated frames.

    Feed arbitrary chunks (network reads, an in-memory simulated link) and
    get back complete payloads; partial frames are buffered until the rest
    arrives. :class:`FrameReader` puts a socket under it; the replication
    layer's simulated WAN links feed it real frame-protocol bytes directly.

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
        while len(self._buffer) >= _LEN.size:
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


class FrameReader:
    """The blocking frame reader: one ``recv_into`` per wake-up.

    Each read drains what the kernel holds (into one reusable 64 KiB buffer)
    through a :class:`FrameSplitter`: pipelined frames come out of a single
    read, and consumed bytes live in the reader, so a ``socket.timeout``
    mid-frame loses nothing — the next :meth:`read` resumes there. Code that
    ``select``s on the socket must check :attr:`ready` first: queued frames
    do not make the descriptor readable.
    """

    def __init__(self, sock: socket.socket) -> None:
        self._sock = sock
        self._splitter = FrameSplitter()
        self._chunk = memoryview(bytearray(1 << 16))
        self._frames: deque[bytes] = deque()

    @property
    def ready(self) -> bool:
        """True when :meth:`read` would return without touching the socket."""
        return bool(self._frames)

    @property
    def idle(self) -> bool:
        """True when the reader holds no received byte, whole frame or part
        of one — the socket can change hands."""
        return not self._frames and not self._splitter.pending_bytes

    def read(self) -> bytes | None:
        """The next frame payload; None at clean EOF on a frame boundary.
        ``socket.timeout`` propagates; an oversized length prefix or a
        connection closed mid-frame raises :class:`FrameError`."""
        while not self._frames:
            count = self._sock.recv_into(self._chunk)
            if not count:
                if self._splitter.pending_bytes:
                    raise FrameError("connection closed mid-frame")
                return None
            self._frames.extend(self._splitter.feed(self._chunk[:count]))
        return self._frames.popleft()


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
