"""Socket transport for the replication layer: ``repro replicate``.

Two ``python -m repro replicate`` processes — one ``--listen PORT``, one
``--peer HOST:PORT`` — each drive their own workload into their own cache
and exchange the same diff records the simulated
:class:`~repro.store.replication.ReplicationDriver` exchanges, but over a
real TCP connection using the proc tier's frame protocol.

Session protocol (every frame is a pickled dict):

``{"op": "hello", "magic": ..., "node": id}``
    Handshake; sent immediately after connecting.
``{"op": "diff", "from": id, "sent_at": t, "records": [...]}``
    One sync's worth of diff records (see
    :mod:`repro.store.replication` for the record schema). Sent every
    ``sync_interval`` wall seconds while either side has pending records.
    With a tracer attached the message also carries a ``"trace"`` context
    (``[trace_id, span_id]`` of the sender's ``repl_sync`` span); the
    receiver hangs its ``apply_diff`` span under it, so merged exports
    show one send->apply edge per sync. Untraced sessions omit the key.
``{"op": "done", "node": id}``
    The sender's workload is finished and its outbound queue is drained.
``{"op": "digest", "node": id, "digest": {truth_key: [version, origin]}}``
    The sender's live LWW registry, sent once both sides are done. Each
    side compares the peer digest against its own to score convergence —
    TCP ordering guarantees every diff preceding the digest has already
    been applied, so matching digests mean the pair actually converged.
``{"op": "bye"}``
    Clean teardown.

Both roles run the *same* loop (:func:`replicate_session`); only who dials
differs. SIGTERM/SIGINT (the ``stop`` event) ends the workload early,
flushes pending diffs, and still completes the digest exchange when the
peer cooperates.
"""

from __future__ import annotations

import select
import socket
import time

from repro.obs.distributed import record_remote_leaf
from repro.serving.proc.protocol import (
    FrameReader,
    PickleCodec,
    connect_link,
    link_socket,
    send_frame,
)
from repro.store.replication import ReplicaNode

#: Handshake magic; bumping it breaks mixed-version pairs loudly.
HELLO_MAGIC = "repro-replica-v1"

#: Seconds a session blocks in ``recv`` before advancing its workload.
POLL_TIMEOUT = 0.02

#: Wall seconds a finished node waits for the peer's digest before giving up.
SETTLE_TIMEOUT = 15.0


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


def node_digest(node: ReplicaNode) -> dict:
    """The node's live LWW registry: truth_key -> [version, origin].

    Only keys with a cached element are included — tombstone-only keys in
    ``versions`` describe entries both sides dropped, and lists (not
    tuples) keep the wire form codec-agnostic.
    """
    return {
        key: list(node.versions[key])
        for key, ids in node.truth_index.items()
        if ids and key in node.versions
    }


def digest_agreement(mine: dict, theirs: dict) -> dict:
    """Score two digests: fraction of union truth keys with equal versions."""
    keys = set(mine) | set(theirs)
    if not keys:
        return {"agreement": 1.0, "union_keys": 0, "stale_keys": 0}
    agree = sum(
        1
        for key in keys
        if key in mine
        and key in theirs
        and list(mine[key]) == list(theirs[key])
    )
    return {
        "agreement": agree / len(keys),
        "union_keys": len(keys),
        "stale_keys": len(keys) - agree,
    }


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

    ``tracer`` (optional) records a ``repl_sync`` span per outgoing diff
    (its context rides in the message) and an ``apply_diff`` span per
    incoming one, parented under the *sender's* context via
    :func:`~repro.obs.distributed.record_remote_leaf`.

    Returns a report dict with the convergence score from the digest
    exchange (``agreement`` is None if the peer vanished first).
    """
    wire_codec = PickleCodec()
    # Frames are tiny and, once select says readable, arriving; a generous
    # per-frame timeout only guards against a wedged peer.
    sock.settimeout(1.0)
    reader = FrameReader(sock)
    start = time.monotonic()
    frames_out = frames_in = 0

    def send(message: dict) -> bool:
        # A peer that already said bye and closed is not an error at this
        # layer — the caller sees peer_closed and winds down.
        nonlocal frames_out
        try:
            send_frame(sock, wire_codec.dumps(message))
        except OSError:
            return False
        frames_out += 1
        return True

    def send_diff() -> bool:
        # One repl_sync span per outgoing diff; its context rides in the
        # message so the peer's apply_diff span hangs under it.
        message = node.diff_message()
        if tracer is None:
            return send(message)
        with tracer.request(
            "repl_sync", node=node.node_id, records=len(message["records"])
        ) as span:
            message["trace"] = [span.trace_id, span.span_id]
            return send(message)

    send({"op": "hello", "magic": HELLO_MAGIC, "node": node.node_id})
    work = iter(workload or ())
    steps = 0
    peer_id = None
    peer_done = False
    peer_digest = None
    local_done = workload is None
    sent_done = False
    sent_digest = False
    agreement = None
    peer_closed = False
    next_sync = sync_interval
    settle_deadline = None
    try:
        while True:
            now = time.monotonic() - start
            node.now = max(node.now, now)
            if stop is not None and stop.is_set():
                local_done = True
            # -- pump one incoming frame -----------------------------------
            # Poll (not block) while the workload still has steps, so local
            # writes aren't rate-limited by an idle link; once done, block
            # briefly to avoid spinning while waiting on the peer.
            wait = POLL_TIMEOUT if local_done else 0.0
            payload = None
            # Frames the last read already split off come first: they do
            # not make the socket readable.
            if reader.ready or select.select([sock], [], [], wait)[0]:
                try:
                    payload = reader.read()
                except socket.timeout:
                    payload = None
                else:
                    if payload is None:
                        peer_closed = True
                        break
            if payload:
                frames_in += 1
                message = wire_codec.loads(payload)
                op = message.get("op")
                if op == "hello":
                    if message.get("magic") != HELLO_MAGIC:
                        raise RuntimeError(
                            f"peer handshake mismatch: {message.get('magic')!r}"
                        )
                    peer_id = message.get("node")
                elif op == "diff":
                    t0 = tracer.clock() if tracer is not None else 0.0
                    node.apply_diff(message["records"], now=now)
                    record_remote_leaf(
                        tracer,
                        message.get("trace"),
                        "apply_diff",
                        t0,
                        attrs={
                            "records": len(message["records"]),
                            "from": message.get("from"),
                        },
                    )
                elif op == "done":
                    peer_done = True
                elif op == "digest":
                    peer_digest = message["digest"]
                elif op == "bye":
                    peer_closed = True
                    break
            # -- advance the local workload one step -----------------------
            if not local_done:
                try:
                    step = next(work)
                except StopIteration:
                    local_done = True
                else:
                    step(now)
                    steps += 1
                    if pace > 0.0:
                        time.sleep(pace)
            # -- periodic diff sync ----------------------------------------
            if now >= next_sync and node.pending:
                if not send_diff():
                    peer_closed = True
                    break
                next_sync = now + sync_interval
            # -- done / digest handshake -----------------------------------
            if local_done and not sent_done:
                if node.pending:
                    send_diff()
                if not send({"op": "done", "node": node.node_id}):
                    peer_closed = True
                    break
                sent_done = True
                settle_deadline = now + settle_timeout
            if sent_done and peer_done and not sent_digest:
                # Every peer diff preceding its "done" has been applied
                # (TCP ordering + the one-frame pump above runs first), so
                # the digest reflects the merged state.
                if not send(
                    {
                        "op": "digest",
                        "node": node.node_id,
                        "digest": node_digest(node),
                    }
                ):
                    peer_closed = True
                    break
                sent_digest = True
            if sent_digest and peer_digest is not None:
                agreement = digest_agreement(node_digest(node), peer_digest)
                send({"op": "bye"})
                break
            if settle_deadline is not None and now > settle_deadline:
                break
    finally:
        try:
            sock.shutdown(socket.SHUT_RDWR)
        except OSError:
            pass
        sock.close()
    return {
        "node": node.node_id,
        "peer": peer_id,
        "peer_closed_first": peer_closed,
        "steps": steps,
        "frames_out": frames_out,
        "frames_in": frames_in,
        "items": len(node.cache),
        "agreement": agreement,
        "replication": node.stats(),
    }
