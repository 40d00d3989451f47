"""Cache semantics atop Sine (§4.3): hit definition, admission, eviction, TTL.

:class:`AsteriaCache` turns the Sine retrieval pipeline into a real cache:

* **Semantic-aware hit** — a lookup is a hit only after the full two-stage
  validation; a hit increments the element's frequency.
* **Admission** — misses (and prefetches) become new semantic elements with
  metadata captured from the actual remote fetch.
* **Eviction** — TTL purge first (Algorithm 2 line 6), then lowest retention
  score until usage fits capacity; each reads a lazy heap, not the residents.

:class:`ExactCache` is the traditional exact-match baseline (Agent_exact)
with the same capacity/TTL machinery but a plain text-keyed dict.
"""

from __future__ import annotations

import heapq
import itertools
import math
from dataclasses import dataclass
from typing import Sequence

import numpy as np

from repro.ann.base import SearchHit
from repro.core.element import SemanticElement
from repro.core.eviction import EvictionPolicy, LCFUPolicy, LRUPolicy
from repro.core.sine import Sine, SineResult
from repro.core.types import FetchResult, Query
from repro.judger.staticity import StaticityScorer
from repro.store.backend import CacheBackend, InProcessBackend


def canonical_text(text: str) -> str:
    """Normalisation used for exact-match and shard-routing keys
    (case/whitespace-insensitive)."""
    return " ".join(text.lower().split())


@dataclass
class CacheStats:
    """Book-keeping counters shared by both cache flavours."""

    inserts: int = 0
    evictions: int = 0
    expirations: int = 0
    rejected_duplicates: int = 0
    prefetch_inserts: int = 0


class AsteriaCache:
    """Semantic knowledge cache over a Sine index.

    Parameters
    ----------
    sine:
        The retrieval pipeline (owns the embedder, ANN index, and judger).
    capacity_items:
        Maximum live elements; None = unbounded.
    default_ttl:
        Seconds of life per element; None = immortal entries.
    policy:
        Eviction policy (default :class:`LCFUPolicy`).
    staticity_scorer:
        Scores new elements' staticity; a default noisy scorer is created
        when omitted.
    staticity_ttl_scaling:
        Scale each element's TTL by ``staticity / 10`` (a stable fact lives
        the full TTL, ephemeral content expires early). Off by default —
        the paper uses a single user-defined TTL; this is the natural
        extension its aging discussion suggests.
    arena:
        Optional contiguous embedding storage (see :mod:`repro.core.arena`).
        When set, admission allocates one arena row per element
        (``element.embedding`` becomes a view of it, ``element.arena_slot``
        the handle), removal recycles the row, and the Sine index scores
        the same rows in place via ``add_slot``. Share one arena between
        the cache and its index; the float32 tier replays per-element
        decisions exactly. Shorthand for
        ``backend=InProcessBackend(arena=arena)``.
    backend:
        Element storage (see :mod:`repro.store.backend`). Defaults to an
        :class:`~repro.store.backend.InProcessBackend` holding ``arena``;
        every mutation (admit, touch, delete-with-reason) routes through
        it, which is how the journal and replication layers observe the
        cache without touching its decision logic.
    """

    def __init__(
        self,
        sine: Sine,
        capacity_items: int | None = None,
        default_ttl: float | None = 3600.0,
        policy: EvictionPolicy | None = None,
        staticity_scorer: StaticityScorer | None = None,
        staticity_ttl_scaling: bool = False,
        arena=None,
        backend: CacheBackend | None = None,
    ) -> None:
        if capacity_items is not None and capacity_items < 1:
            raise ValueError("capacity_items must be >= 1 or None")
        if default_ttl is not None and default_ttl <= 0:
            raise ValueError("default_ttl must be > 0 or None")
        if backend is not None and arena is not None:
            raise ValueError("pass the arena to the backend, not the cache")
        self.sine = sine
        self.capacity_items = capacity_items
        self.default_ttl = default_ttl
        self.policy = policy if policy is not None else LCFUPolicy()
        self.staticity_scorer = staticity_scorer or StaticityScorer()
        self.staticity_ttl_scaling = staticity_ttl_scaling
        self._backend: CacheBackend = (
            backend if backend is not None else InProcessBackend(arena=arena)
        )
        self._next_id = 1
        self.stats = CacheStats()
        #: Lazy min-heap of (retention score, element_id, version) used by
        #: capacity eviction. Entries whose version no longer matches
        #: ``_score_version`` are garbage and skipped on pop, so score
        #: updates (hits, TTL changes) are O(log n) pushes instead of
        #: full-population rescans.
        self._heap: list[tuple[float, int, int]] = []
        self._score_version: dict[int, int] = {}
        #: Lazy min-heap of (expires_at, admission sequence, element_id): one
        #: entry per finite-TTL admission, live while ``_admitted`` maps its id
        #: to its sequence (which is also the resident map's order).
        self._expiry: list[tuple[float, int, int]] = []
        self._admitted: dict[int, int] = {}
        self._admissions = 0
        #: Optional stage tracer (see :mod:`repro.obs.trace`); cascades to
        #: the Sine pipeline via :meth:`set_tracer`.
        self.tracer = None

    def set_tracer(self, tracer) -> None:
        """Attach (or detach with None) a stage tracer to the cache and its
        Sine pipeline."""
        self.tracer = tracer
        self.sine.tracer = tracer

    # -- identity / storage ----------------------------------------------------
    def _take_id(self) -> int:
        """Allocate the next element id (monotonic; restorable, unlike the
        ``itertools.count`` it replaced — warm restarts must continue the
        same id sequence so heap tie-breaks replay exactly)."""
        element_id = self._next_id
        self._next_id += 1
        return element_id

    def reserve_id(self, element_id: int) -> None:
        """Ensure future :meth:`_take_id` calls never re-issue ``element_id``
        (restore paths admit elements with their historical ids)."""
        if element_id >= self._next_id:
            self._next_id = element_id + 1

    @property
    def backend(self) -> CacheBackend:
        """The element storage backend (see :mod:`repro.store.backend`)."""
        return self._backend

    def wrap_backend(self, wrapper) -> CacheBackend:
        """Swap in ``wrapper(current_backend)`` as the active backend.

        The wrapper must share the inner backend's element mapping (see
        :class:`~repro.store.backend.WrappingBackend`), so wrapping is safe
        mid-life: the journal and replication layers attach this way after
        a restore completes.
        """
        self._backend = wrapper(self._backend)
        return self._backend

    # -- introspection ---------------------------------------------------------
    def __len__(self) -> int:
        return len(self._backend.elements)

    def __bool__(self) -> bool:
        """A cache is a service, not a container: always truthy.

        Without this, an *empty* cache is falsy via ``__len__`` and
        ``shared_cache or build_new()`` silently un-shares it.
        """
        return True

    def __contains__(self, element_id: int) -> bool:
        return element_id in self._backend.elements

    @property
    def elements(self):
        """Live elements keyed by id (treat as read-only)."""
        return self._backend.elements

    @property
    def arena(self):
        """The backend's embedding arena (None for plain dict storage)."""
        return self._backend.arena

    def usage(self) -> int:
        """Current occupancy in elements (the capacity unit)."""
        return len(self._backend.elements)

    # -- lookup -----------------------------------------------------------------
    def lookup(self, query: Query, now: float, ann_only: bool = False) -> SineResult:
        """Two-stage lookup; a validated match is a *hit* and bumps frequency.

        Expired elements are purged lazily before retrieval so a dead entry
        can never be served.
        """
        self.remove_expired(now)
        result = self.sine.retrieve(query, self._backend.elements, ann_only=ann_only)
        self._note_hit(result, now)
        return result

    def lookup_prepared(
        self,
        query: Query,
        raw_hits: list[SearchHit],
        now: float,
        ann_only: bool = False,
    ) -> SineResult:
        """Lookup over pre-computed ANN hits (no expiry purge — the batch
        caller runs :meth:`remove_expired` once for the whole batch).

        Hit bookkeeping (frequency, prefetch confirmation) is identical to
        :meth:`lookup`.
        """
        result = self.sine.retrieve_prepared(
            query, raw_hits, self._backend.elements, ann_only=ann_only
        )
        self._note_hit(result, now)
        return result

    def lookup_batch(
        self, queries: Sequence[Query], now: float, ann_only: bool = False
    ) -> list[SineResult]:
        """Batched lookups sharing one embed-batch and one ANN-batch call.

        Equivalent to N :meth:`lookup` calls at the same ``now``: the expiry
        purge runs once (repeat purges at one timestamp are no-ops), retrieval
        reads no per-element hit state, and hit bookkeeping replays in query
        order.
        """
        self.remove_expired(now)
        results = self.sine.lookup_batch(
            queries, self._backend.elements, ann_only=ann_only
        )
        for result in results:
            self._note_hit(result, now)
        return results

    def prepare_batch(self, texts: Sequence[str]) -> list[list[SearchHit]]:
        """Stage-1 work for a batch: one embed-batch + one ANN-batch call.

        Returns raw (unthresholded) ANN hits per text, suitable for
        :meth:`lookup_prepared`. Factored out of the engine's batch path so a
        sharded cache can supply its own per-shard grouping.
        """
        if not texts:
            return []
        tracer = self.tracer
        if tracer is not None and not (tracer.live and tracer.active()):
            tracer = None
        if tracer is None:
            embeddings = self.sine.embedder.embed_batch(texts)
        else:
            t0 = tracer.clock()
            embeddings = self.sine.embedder.embed_batch(texts)
            tracer.record_leaf("embed", t0, {"batch": len(texts)})
        search_batch = self.sine.index.search_batch
        k = self.sine.max_candidates
        if tracer is None:
            return search_batch(embeddings, k)
        t0 = tracer.clock()
        hits = search_batch(embeddings, k)
        tracer.record_leaf("ann_search", t0, {"batch": len(texts)})
        return hits

    def _note_hit(self, result: SineResult, now: float) -> None:
        if result.match is None:
            return
        result.match.record_hit(now)
        if result.match.prefetched and result.match.frequency == 1:
            # First validated use of a speculative entry.
            result.match.metadata["prefetch_confirmed_at"] = now
        self._backend.touch(result.match)
        self._heap_update(result.match, now)

    def contains_semantic(self, query: Query) -> bool:
        """Stage-1-only membership probe (used by the prefetcher's guard)."""
        return bool(self.sine.candidates_for(query))

    # -- admission ---------------------------------------------------------------
    def insert(
        self,
        query: Query,
        fetch: FetchResult,
        now: float,
        prefetched: bool = False,
        ttl: float | None = None,
    ) -> SemanticElement:
        """Store a fetched result as a new semantic element.

        ``ttl`` overrides the cache default for this element. Returns the
        new element (after making room under the capacity limit).
        """
        if ttl is not None and ttl <= 0:
            raise ValueError("ttl must be > 0 or None")
        element_id = self._take_id()
        staticity = self.staticity_scorer.score(query.text, query.staticity)
        effective_ttl = ttl if ttl is not None else self.default_ttl
        if effective_ttl is not None and self.staticity_ttl_scaling:
            effective_ttl *= staticity / 10.0
        expires_at = now + effective_ttl if effective_ttl is not None else float("inf")
        embedding = self.sine.embedder.embed(query.text)
        embedding, arena_slot = self._backend.bind_embedding(embedding)
        element = SemanticElement(
            element_id=element_id,
            key=query.text,
            value=fetch.result,
            embedding=embedding,
            tool=query.tool,
            truth_key=query.fact_id,
            staticity=staticity,
            frequency=0,
            retrieval_latency=fetch.service_latency,
            retrieval_cost=fetch.cost,
            size_tokens=max(1, fetch.size_tokens),
            created_at=now,
            last_accessed_at=now,
            expires_at=expires_at,
            prefetched=prefetched,
            arena_slot=arena_slot,
        )
        self._backend.put(element)
        self.sine.insert(element)
        self.stats.inserts += 1
        if prefetched:
            self.stats.prefetch_inserts += 1
        self._file(element, now)
        self._enforce_capacity(now, protect=element.element_id)
        return element

    def admit_restored(
        self,
        record: dict,
        element_id: int | None = None,
        shift: float = 0.0,
        now: float | None = None,
        drop_expired: bool = True,
    ) -> SemanticElement | None:
        """Re-admit one persisted element record (snapshot or journal replay).

        Unlike :meth:`insert` this preserves the element's historical
        identity and state: the stored ``element_id`` (heap tie-breaks
        replay exactly), frequency, timestamps (shifted by ``shift``), and
        staticity are taken from ``record`` rather than recomputed, no
        stats counters move, and capacity is *not* enforced — a journal's
        own evict records reproduce the membership trajectory, so replay
        must not race them. Keys are re-embedded through the cache's own
        Sine (snapshots stay model-agnostic). Returns the element, or None
        when it was skipped (already present, or expired and
        ``drop_expired``).
        """
        eid = element_id if element_id is not None else record.get("element_id")
        if eid is None:
            eid = self._take_id()
        elif eid in self._backend.elements:
            return None
        expires_at = record["expires_at"]
        expires_at = math.inf if expires_at is None else expires_at + shift
        if now is None:
            now = record["last_accessed_at"] + shift
        if drop_expired and expires_at <= now:
            self.reserve_id(eid)
            return None
        embedding = self.sine.embedder.embed(record["key"])
        embedding, arena_slot = self._backend.bind_embedding(embedding)
        element = SemanticElement(
            element_id=eid,
            key=record["key"],
            value=record["value"],
            embedding=embedding,
            tool=record["tool"],
            truth_key=record["truth_key"],
            staticity=record["staticity"],
            frequency=record["frequency"],
            retrieval_latency=record["retrieval_latency"],
            retrieval_cost=record["retrieval_cost"],
            size_tokens=record["size_tokens"],
            created_at=record["created_at"] + shift,
            last_accessed_at=record["last_accessed_at"] + shift,
            expires_at=expires_at,
            prefetched=record["prefetched"],
            arena_slot=arena_slot,
            metadata=dict(record.get("metadata") or {}),
        )
        self._backend.put(element)
        self.sine.insert(element)
        self.reserve_id(eid)
        self._file(element, now)
        return element

    def remove(self, element_id: int, reason: str = "delete") -> SemanticElement:
        """Forcibly remove one element (eviction, invalidation).

        ``reason`` ("delete"/"evict"/"expire"/"invalidate") is passed to the
        backend so decorator backends (journal, replication) can tell the
        mutation kinds apart.
        """
        element = self._backend.elements.get(element_id)
        if element is None:
            raise KeyError(f"element {element_id} not in cache")
        # The backend releases the arena slot inside delete().
        self.sine.remove(element_id)
        self._backend.delete(element_id, reason=reason)
        # Heap entries for this id become garbage (the two maps are the truth).
        self._score_version.pop(element_id, None)
        self._admitted.pop(element_id, None)
        return element

    def compact_arena(self) -> dict[int, int]:
        """Compact the embedding arena and rewire every live handle.

        Moves live rows to the front of the arena matrix, then propagates
        the resulting ``{old_slot: new_slot}`` remap to the index (via its
        ``remap_slots``) and to each element's slot handle and embedding
        view. Rows are overwritten in place during compaction, so stale
        views must not survive — callers only ever see refreshed ones.
        Returns the remap (empty when nothing moved or no arena is set).
        """
        if self.arena is None:
            return {}
        remap = self.arena.compact()
        if not remap:
            return {}
        self.sine.index.remap_slots(remap)
        for element in self._backend.elements.values():
            slot = element.arena_slot
            if slot is None:
                continue
            slot = remap.get(slot, slot)
            element.arena_slot = slot
            element.embedding = self.arena.get(slot)
        return remap

    def invalidate(self, predicate) -> int:
        """Remove every element for which ``predicate(element)`` is true.

        The operational escape hatch: purge a tool's entries after a backend
        migration, drop a topic after a breaking news correction, etc.
        Returns the number of elements removed.
        """
        victims = [
            element_id
            for element_id, element in self._backend.elements.items()
            if predicate(element)
        ]
        for element_id in victims:
            self.remove(element_id, reason="invalidate")
        return len(victims)

    # -- lifecycle ----------------------------------------------------------------
    def remove_expired(self, now: float) -> int:
        """TTL purge (Algorithm 2 runs this before capacity eviction).

        One comparison when nothing is due; otherwise the due elements go in
        resident-map order, as a scan would take them. An entry whose element
        left is dropped, one whose element now expires later is re-filed (an
        *earlier* deadline set by direct mutation needs :meth:`_rebuild_heap`).
        """
        heap = self._expiry
        if not heap or heap[0][0] > now:
            return 0
        due: list[tuple[int, int]] = []
        while heap and heap[0][0] <= now:
            expires_at, sequence, element_id = heapq.heappop(heap)
            if self._admitted.get(element_id) != sequence:
                continue
            current = self._backend.elements[element_id].expires_at
            if current == expires_at:
                due.append((sequence, element_id))
            elif current != math.inf:
                heapq.heappush(heap, (current, sequence, element_id))
        for _, element_id in sorted(due):
            self.remove(element_id, reason="expire")
        self.stats.expirations += len(due)
        return len(due)

    # -- the two lazy heaps -----------------------------------------------------
    def _shed_garbage(self, now: float) -> None:
        """Hold both heaps to ``2 * resident + 64`` entries wherever one is pushed
        (a cache that never fills would otherwise keep a dead tuple per hit)."""
        limit = 2 * len(self._backend.elements) + 64
        if len(self._heap) > limit or len(self._expiry) > limit:
            self._rebuild_heap(now)

    def _file(self, element: SemanticElement, now: float) -> None:
        """Enter a just-admitted element into both heaps."""
        element_id = element.element_id
        sequence = self._admitted[element_id] = self._admissions
        self._admissions += 1
        if element.expires_at != math.inf:
            heapq.heappush(self._expiry, (element.expires_at, sequence, element_id))
        if self.capacity_items is not None:
            self._score_version[element_id] = 0
            score = self.policy.score(element, now)
            heapq.heappush(self._heap, (score, element_id, 0))
        self._shed_garbage(now)

    def _heap_update(self, element: SemanticElement, now: float) -> None:
        """Re-score ``element`` after a state change (hit, TTL refresh).

        The old heap entry is invalidated by bumping the element's version;
        a fresh ``(score, id, version)`` entry is pushed. O(log n), vs the
        O(n) full rescan the heap replaces.
        """
        if self.capacity_items is None:
            return
        version = self._score_version.get(element.element_id)
        if version is None:
            return
        version += 1
        self._score_version[element.element_id] = version
        score = self.policy.score(element, now)
        heapq.heappush(self._heap, (score, element.element_id, version))
        self._shed_garbage(now)

    def _rebuild_heap(self, now: float) -> None:
        """Re-file the whole population in both heaps, dead entries dropped
        (after a persistence restore, policy swap or direct element mutation).
        Each heap is emptied first: a rebuild never holds old entries and new."""
        elements = self._backend.elements
        score = self.policy.score
        self._score_version = dict.fromkeys(elements, 0)
        self._heap.clear()
        self._heap.extend((score(e, now), eid, 0) for eid, e in elements.items())
        heapq.heapify(self._heap)
        self._admitted = admitted = {eid: i for i, eid in enumerate(elements)}
        self._admissions = len(admitted)
        self._expiry.clear()
        self._expiry.extend(
            (e.expires_at, admitted[eid], eid)
            for eid, e in elements.items() if e.expires_at != math.inf
        )
        heapq.heapify(self._expiry)

    def _enforce_capacity(self, now: float, protect: int | None = None) -> None:
        if self.capacity_items is None or self.usage() <= self.capacity_items:
            return
        tracer = self.tracer
        if tracer is None or not tracer.live or not tracer.active():
            self._evict_to_capacity(now, protect)
            return
        before = self.stats.evictions
        t0 = tracer.clock()
        self._evict_to_capacity(now, protect)
        tracer.record_leaf("evict", t0, {"evicted": self.stats.evictions - before})

    def _evict_to_capacity(self, now: float, protect: int | None) -> None:
        self.remove_expired(now)
        if self.usage() <= self.capacity_items:
            return
        # Re-sync if elements arrived outside insert() (persistence restore)
        # or the heap has accumulated too much garbage.
        if len(self._score_version) != len(self._backend.elements):
            self._rebuild_heap(now)
        self._shed_garbage(now)
        rebuilt = False
        deferred: list[tuple[float, int, int]] = []
        while self.usage() > self.capacity_items:
            if not self._heap:
                if rebuilt:
                    break
                self._rebuild_heap(now)
                rebuilt = True
                deferred.clear()
                continue
            score, element_id, version = heapq.heappop(self._heap)
            if self._score_version.get(element_id) != version:
                continue  # garbage from an invalidated score
            element = self._backend.elements.get(element_id)
            if element is None:
                continue
            fresh = self.policy.score(element, now)
            if fresh != score and not rebuilt:
                # A score changed without notice (policy swapped, element
                # mutated directly): rebuild once so pop order matches a
                # full rescan exactly, then resume.
                self._rebuild_heap(now)
                rebuilt = True
                deferred.clear()
                continue
            if element_id == protect:
                deferred.append((score, element_id, version))
                continue
            self.remove(element_id, reason="evict")
            self.stats.evictions += 1
        for entry in deferred:
            heapq.heappush(self._heap, entry)

    def __repr__(self) -> str:
        return (
            f"AsteriaCache(items={len(self)}, capacity={self.capacity_items}, "
            f"policy={self.policy.name})"
        )


class ExactCache:
    """Traditional exact-match cache (the Agent_exact baseline).

    Keys are canonicalised query text; a hit requires the same text (so any
    paraphrase misses — the failure mode §6.2 attributes to exact caching).
    Reuses :class:`SemanticElement` for storage so metrics and eviction
    policies are directly comparable; the default policy is LRU, the classic
    choice for KV caches.
    """

    def __init__(
        self,
        capacity_items: int | None = None,
        default_ttl: float | None = 3600.0,
        policy: EvictionPolicy | None = None,
        staticity_scorer: StaticityScorer | None = None,
    ) -> None:
        if capacity_items is not None and capacity_items < 1:
            raise ValueError("capacity_items must be >= 1 or None")
        self.capacity_items = capacity_items
        self.default_ttl = default_ttl
        self.policy = policy if policy is not None else LRUPolicy()
        self.staticity_scorer = staticity_scorer or StaticityScorer()
        self._by_key: dict[str, SemanticElement] = {}
        self._ids = itertools.count(1)
        self.stats = CacheStats()
        self._empty_embedding = np.zeros(1, dtype=np.float32)

    def __len__(self) -> int:
        return len(self._by_key)

    def __bool__(self) -> bool:
        """Always truthy; see :meth:`AsteriaCache.__bool__`."""
        return True

    def usage(self) -> int:
        """Current occupancy in entries."""
        return len(self._by_key)

    def lookup(self, query: Query, now: float) -> SemanticElement | None:
        """Exact-match lookup; hits bump frequency."""
        key = canonical_text(query.text)
        element = self._by_key.get(key)
        if element is None:
            return None
        if element.is_expired(now):
            del self._by_key[key]
            self.stats.expirations += 1
            return None
        element.record_hit(now)
        return element

    def insert(
        self,
        query: Query,
        fetch: FetchResult,
        now: float,
        ttl: float | None = None,
    ) -> SemanticElement:
        """Store a fetched result under its canonical text key."""
        key = canonical_text(query.text)
        if key in self._by_key:
            # Refresh in place (same exact query fetched twice, e.g. expiry race).
            self.stats.rejected_duplicates += 1
            del self._by_key[key]
        effective_ttl = ttl if ttl is not None else self.default_ttl
        expires_at = now + effective_ttl if effective_ttl is not None else float("inf")
        element = SemanticElement(
            element_id=next(self._ids),
            key=query.text,
            value=fetch.result,
            embedding=self._empty_embedding,
            tool=query.tool,
            truth_key=query.fact_id,
            staticity=self.staticity_scorer.score(query.text, query.staticity),
            retrieval_latency=fetch.service_latency,
            retrieval_cost=fetch.cost,
            size_tokens=max(1, fetch.size_tokens),
            created_at=now,
            last_accessed_at=now,
            expires_at=expires_at,
        )
        self._by_key[key] = element
        self.stats.inserts += 1
        self._enforce_capacity(now, protect=key)
        return element

    def _enforce_capacity(self, now: float, protect: str | None = None) -> None:
        if self.capacity_items is None or len(self._by_key) <= self.capacity_items:
            return
        expired_keys = [
            key for key, element in self._by_key.items() if element.is_expired(now)
        ]
        for key in expired_keys:
            del self._by_key[key]
        self.stats.expirations += len(expired_keys)
        if len(self._by_key) <= self.capacity_items:
            return
        scored = sorted(
            (self.policy.score(element, now), key)
            for key, element in self._by_key.items()
            if key != protect
        )
        for _, key in scored:
            if len(self._by_key) <= self.capacity_items:
                break
            del self._by_key[key]
            self.stats.evictions += 1

    def __repr__(self) -> str:
        return f"ExactCache(items={len(self)}, capacity={self.capacity_items})"
