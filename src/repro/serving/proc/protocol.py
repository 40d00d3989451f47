"""Wire framing for the multi-process serving tier.

Every message between the router, the shard workers, and serve clients is
one *frame*:

.. code-block:: text

    +----------------+---------------------------+
    | length: u32 BE | payload: length bytes     |
    +----------------+---------------------------+

The payload is strict JSON (:class:`JsonCodec`): lists, dicts, strings,
numbers, booleans and null, built from the records of
:mod:`repro.core.records`. Decoding a peer's bytes builds data and nothing
else, so a listener can refuse a frame but never run one. Every endpoint
owns its codec *object* and calls ``dumps``/``loads`` through it, so a
measurement harness can shadow one endpoint's serialization without
touching the others.

Frames are capped at :data:`MAX_FRAME` bytes; an oversized, truncated or
undecodable frame raises :class:`FrameError` rather than desynchronizing
the stream.

Trace context rides inside existing frame bodies, never as new frame
types: lookup/insert items may carry an optional trailing ``[trace_id,
parent_span_id]`` element, worker replies may append a fifth element of
completed span records, serve requests may carry a fourth, and the hello
handshake exchanges one ``clock`` ping (request id -1) so the router can
estimate each worker's monotonic-clock offset. Readers index defensively
(``len(frame) > 4``), so an untraced frame carries no trace field at all.

Blocking (workers, replication sessions: :class:`FrameReader` over a
:func:`link_socket`) and asyncio (router, serve clients) frame I/O both live
here, so the length prefix is encoded in exactly one place.

Both request/reply links live here once too: both clients (router to
worker, socket client to front door) speak one :class:`FrameChannel`, and
both listeners read each request through :func:`request_frame`.
"""

from __future__ import annotations

import asyncio
import json
import socket
import struct
from collections import deque

from repro.core import records

#: Hard per-frame cap (64 MiB): far above any real frame (a full lookup
#: batch is a few KB), low enough that a corrupt length prefix fails fast
#: instead of attempting a giant allocation.
MAX_FRAME = 64 * 1024 * 1024

_LEN = struct.Struct(">I")


class FrameError(RuntimeError):
    """A malformed, oversized, truncated or undecodable frame."""


def _refuse_constant(token: str):
    raise ValueError(f"non-finite number {token} in a frame")


class JsonCodec:
    """Compact, strict stdlib JSON (no NaN or Infinity) as UTF-8 bytes; an
    undecodable payload is a :class:`FrameError`. It keeps the C encoder and
    scanner behind :mod:`json`, which ``dumps`` / ``loads`` rebuild or wrap
    in regex passes on every call: more work than a small frame's encoding."""

    def __init__(self) -> None:
        self._encode = json.encoder.c_make_encoder(
            None, json.JSONEncoder().default, json.encoder.encode_basestring_ascii,
            None, ":", ",", False, False, False,  # sort_keys, skipkeys, allow_nan
        )
        self._scan = json.JSONDecoder(parse_constant=_refuse_constant).scan_once

    def dumps(self, obj) -> bytes:
        return "".join(self._encode(obj, 0)).encode()

    def loads(self, data: bytes):
        try:
            text = data.decode()
            obj, end = self._scan(text, 0)
        except (ValueError, StopIteration) as exc:  # bad UTF-8 or JSON, NaN
            raise FrameError(f"undecodable frame: {exc!r}") from None
        if end != len(text):
            raise FrameError(f"undecodable frame: {len(text) - end} bytes after it")
        return obj


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


# -- the request/reply link: one check for listeners, one channel for clients -
#: A request frame: ``[request_id, op, body]``.
_REQUEST = ((int,), (str,), (object,))


def request_frame(codec, payload: bytes) -> list:
    """Decode one request and check it is ``[request_id, op, body]`` with an
    int id and a str op. Raises :class:`FrameError` or
    :class:`~repro.core.records.RecordError`."""
    frame = codec.loads(payload)
    records.check_rows([frame], _REQUEST, "request")
    return frame


class FrameChannel:
    """One pipelined request/reply link over an asyncio connection: request
    ids, the waiters in flight, the one reply read loop, and the teardown
    that fails every waiter still pending when the link ends.

    A reply is ``[request_id, ok, result, ...]``; one that is not a list of
    three or more with an int id and a bool ``ok`` ends the link as a loss
    does. ``owner.codec`` is read per frame, so the wire uses whatever codec
    the owner names. ``failed(result)`` builds the exception of an
    ``ok=false`` reply, ``lost(message)`` that of a lost link; with
    ``share_loss`` every pending waiter gets one shared ``lost`` object,
    without it one each (DESIGN §13 says which client needs which).
    ``on_reply(frame)`` runs before a reply's waiter resolves; ``on_close()``
    once, when the read loop ends.
    """

    def __init__(
        self, reader: asyncio.StreamReader, writer: asyncio.StreamWriter, owner,
        failed, lost, *, share_loss: bool, on_reply=None, on_close=None,
    ) -> None:
        self._owner = owner
        self._reader = reader
        self._writer = writer
        self._failed = failed
        self._lost = lost
        self._share_loss = share_loss
        self._on_reply = on_reply
        self._on_close = on_close
        self._next_id = 0
        self._pending: dict[int, asyncio.Future] = {}
        self._task = asyncio.ensure_future(self._read_loop())

    @property
    def closed(self) -> bool:
        """Nothing will answer a request sent now (a half-closed socket
        still takes bytes, so an ended read loop counts too)."""
        return self._writer.is_closing() or self._task.done()

    def send(self, op: str, body) -> asyncio.Future:
        """Write one request; the future resolves with its reply's result."""
        if self.closed:
            raise self._lost("connection closed")
        request_id = self._next_id
        self._next_id += 1
        future = asyncio.get_running_loop().create_future()
        self._pending[request_id] = future
        write_frame(self._writer, self._owner.codec.dumps([request_id, op, body]))
        return future

    async def _read_loop(self) -> None:
        error: BaseException | None = None
        try:
            while True:
                payload = await read_frame(self._reader)
                if payload is None:
                    break
                frame = self._owner.codec.loads(payload)
                if (
                    type(frame) is not list
                    or len(frame) < 3
                    or type(frame[0]) is not int
                    or type(frame[1]) is not bool
                ):
                    raise FrameError(f"malformed reply {frame!r:.80}")
                if self._on_reply is not None:
                    self._on_reply(frame)
                future = self._pending.pop(frame[0], None)
                if future is None or future.done():
                    continue
                if frame[1]:
                    future.set_result(frame[2])
                else:
                    future.set_exception(self._failed(frame[2]))
        except asyncio.CancelledError:
            raise
        except Exception as exc:  # noqa: BLE001 - fail pending below
            error = exc
        finally:
            reason = "connection lost" + (f" ({error})" if error else "")
            shared = self._lost(reason) if self._share_loss else None
            for future in self._pending.values():
                if not future.done():
                    future.set_exception(shared or self._lost(reason))
            self._pending.clear()
            if self._on_close is not None:
                self._on_close()

    async def aclose(self) -> None:
        """Stop reading (every pending waiter fails) and close the link."""
        self._task.cancel()
        await asyncio.gather(self._task, return_exceptions=True)
        self._writer.close()
        try:
            await self._writer.wait_closed()
        except Exception:  # noqa: BLE001 - the peer may already be gone
            pass
