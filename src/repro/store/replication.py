"""Cross-region cache replication: incremental diffs, LWW, simulated WAN.

Two cache instances ("regions") each serve their own query stream and
exchange **incremental diffs** — admissions and invalidations observed by a
:class:`ReplicatingBackend` decorator — every ``sync_interval`` simulated
seconds. Records are versioned per entry and conflicts resolve
**last-writer-wins on** ``truth_key`` (the remote fact identity): the
highest ``(version, origin)`` pair for a truth key wins on both sides, so
the pair converges without coordination, remote-settings style.

Diff wire schema (one frame per sync, payload = a JSON object):

.. code-block:: text

    {"op": "diff", "from": node_id, "sent_at": t, "records": [
        {"truth_key": k, "version": t_write, "origin": node_id,
         "op": "upsert", "record": {<element_record>}},
        {"truth_key": k, "version": t_write, "origin": node_id,
         "op": "invalidate", "record": null},
    ]}

Entries follow :data:`repro.core.records.DIFF_FIELDS`, and a diff is checked
whole first: one malformed entry refuses all of it (``rejected_diffs``).

Diffs travel as real frame-protocol bytes (:func:`encode_frame` on the
sender, :class:`FrameSplitter` on the receiver) through a
:class:`FrameLink` that delivers them after a configurable one-way latency
on the simulated clock — the two directions of a pair get *asymmetric*
latencies, like an actual inter-region path. The same schema serves over a
real TCP socket for ``python -m repro replicate --peer`` /``--listen``.

What replicates: admissions (upserts) and explicit invalidations. Capacity
evictions and TTL expirations do **not** — they are local resource
decisions; region B with a colder working set should not lose an entry
because region A ran out of room.
"""

from __future__ import annotations

from dataclasses import dataclass

from repro.core.cache import AsteriaCache
from repro.core.records import RecordError, check_diff, element_record
from repro.serving.proc.protocol import FrameSplitter, JsonCodec, encode_frame
from repro.store.backend import CacheBackend, WrappingBackend


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
    syncs_sent: int = 0
    syncs_received: int = 0
    rejected_diffs: int = 0

    def as_dict(self) -> dict:
        return dict(self.__dict__)


class ReplicaNode:
    """One region's cache plus its replication state.

    Wraps ``cache``'s backend on construction; afterwards every local
    admission/invalidation is queued for the next sync, and
    :meth:`apply_diff` merges remote records under LWW.

    ``now`` is the node's view of the shared simulated clock — callers
    (driver, CLI loops) advance it as their workload advances; it versions
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
        if records:
            self.stats_rep.syncs_sent += 1
        return records

    def diff_message(self) -> dict:
        return {
            "op": "diff",
            "from": self.node_id,
            "sent_at": self.now,
            "records": self.collect_diff(),
        }

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
        if records:
            self.stats_rep.syncs_received += 1
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
        return {"node": self.node_id, **self.stats_rep.as_dict()}

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


@dataclass
class ConvergenceSample:
    """One measurement of cross-region agreement at time ``t``."""

    t: float
    agreement: float
    union_keys: int
    stale_keys: int
    max_staleness: float


def agreement_between(a: ReplicaNode, b: ReplicaNode) -> ConvergenceSample:
    """Fraction of truth keys (union of both LWW registries) on which the
    two nodes agree about the latest version, plus staleness of the rest."""
    keys = set(a.versions) | set(b.versions)
    if not keys:
        return ConvergenceSample(
            t=max(a.now, b.now), agreement=1.0, union_keys=0, stale_keys=0,
            max_staleness=0.0,
        )
    agree = 0
    max_staleness = 0.0
    for key in keys:
        va = a.versions.get(key)
        vb = b.versions.get(key)
        if va == vb:
            agree += 1
        else:
            lag = abs((va[0] if va else 0.0) - (vb[0] if vb else 0.0))
            max_staleness = max(max_staleness, lag)
    return ConvergenceSample(
        t=max(a.now, b.now),
        agreement=agree / len(keys),
        union_keys=len(keys),
        stale_keys=len(keys) - agree,
        max_staleness=max_staleness,
    )


class ReplicationDriver:
    """Steps a two-node replica pair over a shared simulated clock.

    Owns the sync schedule and the pair of asymmetric links. Call
    :meth:`tick` with the advancing clock from the workload loop; it
    delivers due diffs into each node and emits fresh diffs every
    ``sync_interval`` seconds.
    """

    def __init__(
        self,
        node_a: ReplicaNode,
        node_b: ReplicaNode,
        sync_interval: float = 1.0,
        latency_ab: float = 0.08,
        latency_ba: float = 0.12,
    ) -> None:
        self.node_a = node_a
        self.node_b = node_b
        self.sync_interval = sync_interval
        self.link_ab = FrameLink(latency_ab)
        self.link_ba = FrameLink(latency_ba)
        self._next_sync = sync_interval

    def tick(self, now: float) -> None:
        self.node_a.now = max(self.node_a.now, now)
        self.node_b.now = max(self.node_b.now, now)
        for message in self.link_ab.deliver(now):
            self.node_b.apply_diff(message["records"], now=now)
        for message in self.link_ba.deliver(now):
            self.node_a.apply_diff(message["records"], now=now)
        while now >= self._next_sync:
            self.link_ab.send(self.node_a.diff_message(), now)
            self.link_ba.send(self.node_b.diff_message(), now)
            self._next_sync += self.sync_interval

    def drain(self, now: float) -> float:
        """Flush pending diffs and deliver everything in flight (end of a
        run); returns the time at which the last diff lands."""
        self.link_ab.send(self.node_a.diff_message(), now)
        self.link_ba.send(self.node_b.diff_message(), now)
        settle = now + max(self.link_ab.latency, self.link_ba.latency)
        for message in self.link_ab.deliver(settle):
            self.node_b.apply_diff(message["records"], now=settle)
        for message in self.link_ba.deliver(settle):
            self.node_a.apply_diff(message["records"], now=settle)
        return settle

    def agreement(self) -> ConvergenceSample:
        return agreement_between(self.node_a, self.node_b)
