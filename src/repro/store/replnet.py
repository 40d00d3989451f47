"""Socket transport for the replication layer: ``repro replicate``.

Two ``python -m repro replicate`` processes — one ``--listen PORT``, one
``--peer HOST:PORT`` — each drive their own workload into their own cache
and run the same :class:`~repro.store.replication.ReplicaSession` the
simulated :class:`~repro.store.replication.ReplicationDriver` runs, over a
real TCP connection using the proc tier's frame protocol (the session
protocol is described in :mod:`repro.store.replication`).

:func:`replicate_session` is the session's socket interpreter: it owns the
wall clock, ``select``, frame reads and writes, and the local workload, and
does nothing the session decides. Both roles run it; only who dials
differs. SIGTERM/SIGINT (the ``stop`` event) ends the workload early,
flushes pending diffs, and still completes the digest exchange when the
peer cooperates.
"""

from __future__ import annotations

import select
import socket
import time

from repro.serving.proc.protocol import (
    FrameError,
    FrameReader,
    JsonCodec,
    connect_link,
    link_socket,
    send_frame,
)
from repro.store.replication import SETTLE_TIMEOUT, ReplicaNode, ReplicaSession

#: Seconds a session blocks in ``recv`` before advancing its workload.
POLL_TIMEOUT = 0.02


def open_listener(host: str, port: int) -> socket.socket:
    """Bind and listen for exactly one replication peer."""
    server = socket.socket(socket.AF_INET, socket.SOCK_STREAM)
    server.setsockopt(socket.SOL_SOCKET, socket.SO_REUSEADDR, 1)
    server.bind((host, port))
    server.listen(1)
    return server


def accept_peer(server: socket.socket, stop=None, timeout: float = 120.0):
    """Accept the peer connection, polling ``stop`` between attempts.

    Returns the connected socket, or None if stopped/timed out first.
    """
    server.settimeout(0.5)
    deadline = time.monotonic() + timeout
    try:
        while time.monotonic() < deadline:
            if stop is not None and stop.is_set():
                return None
            try:
                sock, _ = server.accept()
            except socket.timeout:
                continue
            return link_socket(sock)
        return None
    finally:
        server.close()


def connect_peer(host: str, port: int, timeout: float = 30.0) -> socket.socket:
    """Dial the listening replica, retrying until it is up."""
    deadline = time.monotonic() + timeout
    while True:
        try:
            return connect_link(host, port, 5.0)
        except OSError:
            if time.monotonic() >= deadline:
                raise
            time.sleep(0.2)


def replicate_session(
    node: ReplicaNode,
    sock: socket.socket,
    workload=None,
    sync_interval: float = 0.5,
    stop=None,
    pace: float = 0.0,
    settle_timeout: float = SETTLE_TIMEOUT,
    tracer=None,
) -> dict:
    """Run one replication session over a connected socket.

    ``workload`` is an iterator of callables ``step(now)`` — typically
    ``engine.handle`` closures — executed one per loop turn so diff
    application interleaves with local writes the way a live region's
    would. ``pace`` sleeps that many wall seconds after each step.
    ``tracer`` (optional) gets the session's ``repl_sync`` and
    ``apply_diff`` spans.

    Returns :meth:`ReplicaSession.report` plus ``steps``: ``agreement`` is
    None if the peer vanished or a frame was refused first.
    """
    session = ReplicaSession(node, sync_interval, settle_timeout, tracer)
    codec = JsonCodec()
    # Frames are tiny and, once select says readable, arriving; a generous
    # per-frame timeout only guards against a wedged peer.
    sock.settimeout(1.0)
    reader = FrameReader(sock)
    start = time.monotonic()
    work = iter(workload or ())
    local_done = workload is None
    steps = 0

    def send(messages: list[dict]) -> None:
        try:
            for message in messages:
                send_frame(sock, codec.dumps(message))
        except OSError:
            # A peer that already said bye and hung up ends the session;
            # the report has no score unless it already had one.
            session.finished = True

    try:
        send(session.tick(0.0, local_done=False))
        while not session.finished:
            now = time.monotonic() - start
            if stop is not None and stop.is_set():
                local_done = True
            # Poll (not block) while the workload still has steps, so local
            # writes aren't rate-limited by an idle link; once done, block
            # briefly to avoid spinning while waiting on the peer. Frames
            # the last read already split off come first: they do not make
            # the socket readable.
            wait = POLL_TIMEOUT if local_done else 0.0
            payload = b""
            if reader.ready or select.select([sock], [], [], wait)[0]:
                try:
                    payload = reader.read()
                    if payload:
                        send(session.receive(codec.loads(payload), now))
                except socket.timeout:
                    pass
                except FrameError as exc:
                    session.refuse(exc)
                    break
            if payload is None:  # the peer hung up
                break
            if not local_done:
                step = next(work, None)
                if step is None:
                    local_done = True
                else:
                    step(now)
                    steps += 1
                    if pace > 0.0:
                        time.sleep(pace)
            send(session.tick(now, local_done))
    finally:
        try:
            sock.shutdown(socket.SHUT_RDWR)
        except OSError:
            pass
        sock.close()
    return {**session.report(), "steps": steps}
