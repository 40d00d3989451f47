"""Cross-region cache replication: incremental diffs, LWW, simulated WAN.

Two cache instances ("regions") each serve their own query stream and
exchange **incremental diffs** — admissions and invalidations observed by a
:class:`ReplicatingBackend` decorator — every ``sync_interval`` seconds.
Records are versioned per entry and conflicts resolve **last-writer-wins
on** ``truth_key`` (the remote fact identity): the highest
``(version, origin)`` pair for a truth key wins on both sides, so the pair
converges without coordination, remote-settings style.

Both regions run the same :class:`ReplicaSession`, a sans-IO state machine
that two transports drive: :class:`ReplicationDriver` over two
:class:`FrameLink` objects on the simulated clock (real frame-protocol
bytes, one asymmetric one-way latency per direction, like an inter-region
path), and :func:`repro.store.replnet.replicate_session` over a TCP socket
for ``python -m repro replicate --listen`` / ``--peer``. Session protocol
(every frame is a JSON object):

``{"op": "hello", "magic": ..., "node": id}``
    The first frame each side sends. Another magic ends the session.
``{"op": "diff", "from": id, "sent_at": t, "records": [...]}``
    One sync's worth of records, sent every ``sync_interval`` seconds while
    the sender has pending records::

        {"truth_key": k, "version": t_write, "origin": node_id,
         "op": "upsert", "record": {<element_record>}}
        {"truth_key": k, "version": t_write, "origin": node_id,
         "op": "invalidate", "record": null}

    Entries follow :data:`repro.core.records.DIFF_FIELDS`, and a diff is
    checked whole first: one malformed entry refuses all of it
    (``rejected_diffs``). With a tracer attached the message also carries a
    ``"trace"`` context (``[trace_id, span_id]`` of the sender's
    ``repl_sync`` span); the receiver hangs its ``apply_diff`` span under
    it. Untraced sessions omit the key.
``{"op": "done", "node": id}``
    The sender's workload is finished and its outbound queue is drained.
``{"op": "digest", "node": id, "digest": {truth_key: [version, origin]}}``
    The sender's whole LWW registry, tombstones and locally evicted keys
    included, sent once both sides are done. Links and TCP deliver in
    order, so every diff preceding it has been applied: equal registries
    mean the pair converged, and :func:`agreement_between` scores them.
``{"op": "bye"}``
    Sent after scoring; the session is over.

A frame that is not one of these, another hello magic, a diff that fails
its record check, or a malformed trace context or digest ends the session
as a refusal: the transport hangs up, and the report counts one
``protocol_errors`` and names it. A finished side that never sees the peer's digest gives up
``settle_timeout`` seconds after its ``done``.

What replicates: admissions (upserts) and explicit invalidations. Capacity
evictions and TTL expirations do **not** — they are local resource
decisions; region B with a colder working set should not lose an entry
because region A ran out of room.
"""

from __future__ import annotations

import math
from dataclasses import asdict, dataclass

from repro.core.cache import AsteriaCache
from repro.core.records import RecordError, check_diff, element_record
from repro.serving.proc.protocol import (
    FrameError,
    FrameSplitter,
    JsonCodec,
    encode_frame,
)
from repro.store.backend import CacheBackend, WrappingBackend

#: Handshake magic; bumping it breaks mixed-version pairs loudly.
HELLO_MAGIC = "repro-replica-v3"

#: Seconds a finished side waits for the peer's digest before giving up.
SETTLE_TIMEOUT = 15.0


class ReplicatingBackend(WrappingBackend):
    """Backend decorator feeding a :class:`ReplicaNode`'s outbound diff log.

    Observes the cache's mutation stream: every put becomes an ``upsert``
    diff, every ``reason="invalidate"`` delete an ``invalidate`` diff.
    Mutations performed while the node is *applying* a remote diff are
    suppressed (no echo ping-pong).
    """

    name = "replicating"

    def __init__(self, inner: CacheBackend, node: "ReplicaNode") -> None:
        super().__init__(inner)
        self.node = node

    def put(self, element) -> None:
        self.inner.put(element)
        self.node.note_put(element)

    def delete(self, element_id: int, reason: str = "delete"):
        element = self.inner.delete(element_id, reason=reason)
        if element is not None:
            self.node.note_delete(element, reason)
        return element

    def stats(self) -> dict:
        return {**self.inner.stats(), "replication": self.node.stats()}


@dataclass
class ReplicaStats:
    records_out: int = 0
    records_in: int = 0
    applied_upserts: int = 0
    applied_invalidations: int = 0
    lww_rejects: int = 0
    rejected_diffs: int = 0


class ReplicaNode:
    """One region's cache plus its replication state.

    Wraps ``cache``'s backend on construction; afterwards every local
    admission/invalidation is queued for the next sync, and
    :meth:`apply_diff` merges remote records under LWW.

    ``now`` is the node's clock — its :class:`ReplicaSession` advances it
    (wall seconds on a socket, simulated seconds on a link); it versions
    invalidations and ages incoming entries.
    """

    def __init__(self, node_id: str, cache: AsteriaCache) -> None:
        self.node_id = node_id
        self.cache = cache
        self.now = 0.0
        #: Outbound diff records accumulated since the last sync.
        self.pending: list[dict] = []
        #: LWW registry: truth_key -> (version, origin) of the latest write
        #: this node knows about (including tombstones).
        self.versions: dict[str, tuple[float, str]] = {}
        #: truth_key -> set of local element ids currently caching it.
        self.truth_index: dict[str, set[int]] = {}
        self._applying = False
        self._superseding = False
        self.stats_rep = ReplicaStats()
        cache.wrap_backend(lambda inner: ReplicatingBackend(inner, self))
        # Adopt any pre-existing population (warm-started caches).
        for element in cache.elements.values():
            if element.truth_key is not None:
                self.truth_index.setdefault(element.truth_key, set()).add(
                    element.element_id
                )
                self.versions[element.truth_key] = (element.created_at, node_id)

    # -- local mutation observers (called by ReplicatingBackend) -----------
    def note_put(self, element) -> None:
        truth_key = element.truth_key
        if truth_key is None:
            return
        if not self._applying:
            # A write to a truth key supersedes every older cached entry
            # for that key — same rule apply_diff enforces for remote
            # writes, so content (not just versions) converges. The upsert
            # diff itself carries this, so the removals emit nothing.
            stale = [
                element_id
                for element_id in self.truth_index.get(truth_key, ())
                if element_id != element.element_id
            ]
            if stale:
                self._superseding = True
                try:
                    for element_id in stale:
                        self.cache.remove(element_id, reason="invalidate")
                finally:
                    self._superseding = False
        self.truth_index.setdefault(truth_key, set()).add(element.element_id)
        if self._applying:
            return
        version = self._next_version(truth_key, element.created_at)
        self.versions[truth_key] = (version, self.node_id)
        self.pending.append(
            {
                "truth_key": truth_key,
                "version": version,
                "origin": self.node_id,
                "op": "upsert",
                "record": element_record(element),
            }
        )

    def note_delete(self, element, reason: str) -> None:
        truth_key = element.truth_key
        if truth_key is None:
            return
        ids = self.truth_index.get(truth_key)
        if ids is not None:
            ids.discard(element.element_id)
            if not ids:
                del self.truth_index[truth_key]
        if self._applying or self._superseding or reason != "invalidate":
            # Capacity/TTL removals are local decisions, and supersede
            # removals ride the upsert that caused them; only explicit
            # invalidation is a statement about the truth itself.
            return
        version = self._next_version(truth_key, self.now)
        self.versions[truth_key] = (version, self.node_id)
        self.pending.append(
            {
                "truth_key": truth_key,
                "version": version,
                "origin": self.node_id,
                "op": "invalidate",
                "record": None,
            }
        )

    def _next_version(self, truth_key: str, at: float) -> float:
        """Lamport-style version for a local write to ``truth_key``.

        Normally the write's own timestamp — but never at or below the
        version this node already knows for the key. Two regions keep
        independent clocks (socket sessions run one per process), so a
        lagging region's fresh write can carry a timestamp *below* the
        peer-originated version it supersedes locally; shipping that stale
        number would make the peer LWW-reject the diff and the pair would
        never re-agree on the key. Bumping past the known version keeps
        "local write supersedes what it observed" true in wire order too.
        """
        known = self.versions.get(truth_key)
        if known is not None and at <= known[0]:
            return known[0] + 1e-6
        return at

    # -- diff exchange -------------------------------------------------------
    def collect_diff(self) -> list[dict]:
        """Drain the outbound record queue (one sync's worth of diffs)."""
        records, self.pending = self.pending, []
        self.stats_rep.records_out += len(records)
        return records

    def apply_diff(self, records: list[dict], now: float | None = None) -> int:
        """Merge remote diff records under last-writer-wins; returns applied
        count. A diff with any malformed entry changes nothing: it is counted
        in ``rejected_diffs`` and its :class:`RecordError` raised."""
        try:
            check_diff(records)
        except RecordError:
            self.stats_rep.rejected_diffs += 1
            raise
        if now is not None:
            self.now = max(self.now, now)
        applied = 0
        self.stats_rep.records_in += len(records)
        self._applying = True
        try:
            for wire in records:
                truth_key = wire["truth_key"]
                incoming = (wire["version"], wire["origin"])
                known = self.versions.get(truth_key)
                if known is not None and incoming <= known:
                    self.stats_rep.lww_rejects += 1
                    continue
                self.versions[truth_key] = incoming
                # The incoming write supersedes whatever we cache for this
                # truth key, regardless of op.
                for element_id in list(self.truth_index.get(truth_key, ())):
                    self.cache.remove(element_id, reason="invalidate")
                if wire["op"] == "upsert":
                    element = self.cache.admit_restored(
                        wire["record"],
                        element_id=self.cache._take_id(),  # ids are region-local
                        now=self.now,
                    )
                    if element is not None:
                        applied += 1
                        self.stats_rep.applied_upserts += 1
                else:
                    applied += 1
                    self.stats_rep.applied_invalidations += 1
        finally:
            self._applying = False
        # Replicated admissions count against capacity like local ones.
        self.cache._enforce_capacity(self.now)
        return applied

    def stats(self) -> dict:
        return {"node": self.node_id, **asdict(self.stats_rep)}

    def __repr__(self) -> str:
        return f"ReplicaNode(id={self.node_id!r}, items={len(self.cache)})"


class FrameLink:
    """A one-way simulated WAN link carrying real frame-protocol bytes.

    ``send`` encodes the message through the codec and frame protocol and
    schedules its delivery ``latency`` simulated seconds later; ``deliver``
    feeds everything due through a :class:`FrameSplitter` and decodes the
    completed frames. Asymmetric pairs are just two links with different
    latencies.
    """

    def __init__(self, latency: float) -> None:
        self.latency = latency
        self.codec = JsonCodec()
        self._in_flight: list[tuple[float, bytes]] = []
        self._splitter = FrameSplitter()
        self.frames_sent = 0
        self.bytes_sent = 0

    def send(self, message: dict, now: float) -> None:
        data = encode_frame(self.codec.dumps(message))
        self._in_flight.append((now + self.latency, data))
        self.frames_sent += 1
        self.bytes_sent += len(data)

    def deliver(self, now: float) -> list[dict]:
        """Messages whose delivery time has arrived, in send order."""
        due, still = [], []
        for deliver_at, data in self._in_flight:
            (due if deliver_at <= now else still).append((deliver_at, data))
        self._in_flight = still
        messages = []
        for _, data in due:
            for payload in self._splitter.feed(data):
                messages.append(self.codec.loads(payload))
        return messages

    def next_delivery(self) -> float:
        """When the earliest frame in flight lands (inf when none is)."""
        return min((at for at, _ in self._in_flight), default=math.inf)


@dataclass
class ConvergenceSample:
    """One measurement of cross-region agreement at time ``t``."""

    t: float
    agreement: float
    union_keys: int
    stale_keys: int
    max_staleness: float


def agreement_between(mine: dict, theirs: dict, t: float = 0.0) -> ConvergenceSample:
    """Score two LWW registries (truth_key -> ``(version, origin)``, as in
    :attr:`ReplicaNode.versions`, or as lists off the wire).

    ``agreement`` is the fraction of the union of keys whose entries are
    equal. Tombstones and keys one side evicted stay in a registry, so a
    one-sided eviction is not a disagreement. ``max_staleness`` is the
    largest version lag over keys both registries hold; a key only one side
    holds counts in ``stale_keys`` only.
    """
    keys = mine.keys() | theirs.keys()
    both = mine.keys() & theirs.keys()
    differ = [key for key in both if tuple(mine[key]) != tuple(theirs[key])]
    lags = [abs(mine[key][0] - theirs[key][0]) for key in differ]
    agree = len(both) - len(lags)
    return ConvergenceSample(
        t=t,
        agreement=agree / len(keys) if keys else 1.0,
        union_keys=len(keys),
        stale_keys=len(keys) - agree,
        max_staleness=max(lags, default=0.0),
    )


def _pair(value, first: tuple, second: tuple) -> bool:
    """A two-item JSON list whose items have exactly these types."""
    return (
        isinstance(value, list)
        and len(value) == 2
        and type(value[0]) in first
        and type(value[1]) in second
    )


class ReplicaSession:
    """One side of the replication exchange, without I/O.

    A transport feeds it each decoded message (:meth:`receive`) and the
    passing of its clock (:meth:`tick`), sends what each returns, in order,
    and hangs up once ``finished``. The first tick says hello. Clocks are
    the transport's: wall seconds on a socket, simulated on a link.
    """

    def __init__(
        self,
        node: ReplicaNode,
        sync_interval: float = 0.5,
        settle_timeout: float = SETTLE_TIMEOUT,
        tracer=None,
    ) -> None:
        self.node = node
        self.sync_interval = sync_interval
        self.settle_timeout = settle_timeout
        self.tracer = tracer
        self.peer: str | None = None
        #: The digest comparison; None until both digests have met.
        self.score: ConvergenceSample | None = None
        #: The refusal that ended the session, if one did.
        self.error: str | None = None
        self.finished = False
        self.frames_out = self.frames_in = 0
        self._peer_done = self._sent_digest = False
        self._peer_registry: dict | None = None
        self._next_sync = sync_interval
        #: Set when "done" is sent: the last moment to wait for a digest.
        self._deadline: float | None = None

    def receive(self, message, now: float) -> list[dict]:
        """Handle one message from the peer; returns the replies."""
        self.frames_in += 1
        if self.finished:
            return []
        self.node.now = max(self.node.now, now)
        op = message.get("op") if isinstance(message, dict) else None
        try:
            if op == "hello" and message.get("magic") != HELLO_MAGIC:
                raise FrameError(f"peer handshake mismatch: {message.get('magic')!r}")
            if op == "hello":
                self.peer = message.get("node")
            elif op == "diff":
                self._apply(message)
            elif op == "done":
                self._peer_done = True
            elif op == "digest" and isinstance(message.get("digest"), dict) and all(
                _pair(entry, (int, float), (str,)) for entry in message["digest"].values()
            ):
                self._peer_registry = message["digest"]
            elif op == "bye":
                self.finished = True
            else:
                raise FrameError(f"not a session message: {message!r:.80}")
        except (FrameError, RecordError) as exc:
            self.refuse(exc)
            return []
        replies = self._handshake()
        self.frames_out += len(replies)
        return replies

    def tick(self, now: float, local_done: bool) -> list[dict]:
        """Advance to ``now``: hello, a due sync, and once ``local_done``
        the last flush and ``done``. Returns the messages to send."""
        if self.finished:
            return []
        self.node.now = max(self.node.now, now)
        out = []
        if not self.frames_out:  # a session's first message is its hello
            out.append({"op": "hello", "magic": HELLO_MAGIC, "node": self.node.node_id})
        finishing = local_done and self._deadline is None
        if self.node.pending and (now >= self._next_sync or finishing):
            out.append(self._diff())
            self._next_sync = now + self.sync_interval
        if finishing:
            self._deadline = now + self.settle_timeout
            out.append({"op": "done", "node": self.node.node_id})
        out += self._handshake()
        if self._deadline is not None and now > self._deadline:
            self.finished = True
        self.frames_out += len(out)
        return out

    def refuse(self, reason) -> None:
        """End the session on a frame it cannot take."""
        self.error = str(reason)
        self.finished = True

    def report(self) -> dict:
        return {
            "node": self.node.node_id,
            "peer": self.peer,
            "frames_out": self.frames_out,
            "frames_in": self.frames_in,
            "items": len(self.node.cache),
            "agreement": None if self.score is None else asdict(self.score),
            "protocol_errors": int(self.error is not None),
            "error": self.error,
            "replication": self.node.stats(),
        }

    def _diff(self) -> dict:
        # One repl_sync span per outgoing diff; its context rides in the
        # message so the peer's apply_diff span hangs under it.
        records = self.node.collect_diff()
        message = {
            "op": "diff",
            "from": self.node.node_id,
            "sent_at": self.node.now,
            "records": records,
        }
        if self.tracer is not None:
            with self.tracer.request(
                "repl_sync", node=self.node.node_id, records=len(records)
            ) as span:
                message["trace"] = [span.trace_id, span.span_id]
        return message

    def _apply(self, message: dict) -> None:
        context = message.get("trace")
        if context is not None and not _pair(context, (int,), (int,)):
            raise FrameError(f"not a trace context: {context!r:.80}")
        records = message.get("records")
        if self.tracer is None:
            self.node.apply_diff(records)
            return
        # Adopting the sender's repl_sync context parents this span under it.
        with self.tracer.adopt(context), self.tracer.request("apply_diff") as span:
            self.node.apply_diff(records)
            span.attrs = {"records": len(records), "from": message.get("from")}

    def _handshake(self) -> list[dict]:
        # Links and TCP deliver in order, so every peer diff preceding its
        # "done" has been applied: once both sides are done, each registry
        # is the merged state.
        out = []
        if self._deadline is not None and self._peer_done and not self._sent_digest:
            self._sent_digest = True
            registry = {key: list(entry) for key, entry in self.node.versions.items()}
            out.append({"op": "digest", "node": self.node.node_id, "digest": registry})
        if self._sent_digest and self._peer_registry is not None:
            self.score = agreement_between(
                self.node.versions, self._peer_registry, t=self.node.now
            )
            self.finished = True
            out.append({"op": "bye"})
        return out


class ReplicationDriver:
    """Steps a two-node replica pair over a shared simulated clock.

    Runs one :class:`ReplicaSession` per node over a pair of asymmetric
    :class:`FrameLink`s. Call :meth:`tick` with the advancing clock from the
    workload loop, then :meth:`drain` once at the end of the run.
    """

    def __init__(
        self,
        node_a: ReplicaNode,
        node_b: ReplicaNode,
        sync_interval: float = 1.0,
        latency_ab: float = 0.08,
        latency_ba: float = 0.12,
    ) -> None:
        self.sync_interval = sync_interval
        self.link_ab = FrameLink(latency_ab)
        self.link_ba = FrameLink(latency_ba)
        self.sessions = (
            ReplicaSession(node_a, sync_interval),
            ReplicaSession(node_b, sync_interval),
        )

    def tick(self, now: float) -> None:
        """Deliver what is due into each session and send what it says."""
        self._step(now, local_done=False)

    def _step(self, now: float, local_done: bool) -> None:
        links = (self.link_ab, self.link_ba)
        for session, outbound, inbound in zip(self.sessions, links, links[::-1]):
            for message in inbound.deliver(now):
                for reply in session.receive(message, now):
                    outbound.send(reply, now)
            for message in session.tick(now, local_done):
                outbound.send(message, now)

    def drain(self, now: float) -> float:
        """End of the run: both sides flush and run done → digest → bye on
        the simulated clock; returns the time the last frame lands."""
        while True:
            self._step(now, local_done=True)
            due = min(self.link_ab.next_delivery(), self.link_ba.next_delivery())
            if due == math.inf:
                return now
            now = max(now, due)

    def agreement(self) -> ConvergenceSample:
        a, b = (session.node for session in self.sessions)
        return agreement_between(a.versions, b.versions, t=max(a.now, b.now))
