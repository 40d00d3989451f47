"""Pluggable element storage behind :class:`~repro.core.cache.AsteriaCache`.

The cache's semantic machinery (two-stage lookup, LCFU eviction, TTL aging)
is independent of *where* elements live. :class:`CacheBackend` is the
protocol separating the two: the cache decides *what* to admit, evict, and
touch; the backend decides *how* the element map is stored.
:class:`InProcessBackend` — the classic dict (+ optional embedding arena)
store the cache always had — is the one store that holds elements.
Zero-copy: the ``elements`` mapping it exposes is the live dict the Sine
pipeline scans.

Decorator backends (:class:`~repro.store.journal.JournaledBackend`,
:class:`~repro.store.replication.ReplicatingBackend`) wrap an inner backend
and observe the same mutation stream, which is how durability and
replication attach to a running cache without touching its hot path.

Embedding-slot hooks (:meth:`CacheBackend.bind_embedding` /
:meth:`CacheBackend.release_embedding`) keep the arena fast path intact:
for the in-process backend, binding allocates an arena row and returns a
zero-copy view, exactly as the pre-protocol cache did.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Iterator, Mapping, Protocol, runtime_checkable

import numpy as np

from repro.core.element import SemanticElement

#: Delete reasons stamped by the cache so decorator backends (journal,
#: replication) can tell capacity evictions from TTL expiry from explicit
#: invalidation without re-deriving the cause.
DELETE_REASONS = ("delete", "evict", "expire", "invalidate")


@dataclass
class BackendOpStats:
    """Mutation counters every backend keeps (observability + tests)."""

    gets: int = 0
    puts: int = 0
    touches: int = 0
    deletes: int = 0
    deletes_by_reason: dict = field(default_factory=dict)

    def note_delete(self, reason: str) -> None:
        self.deletes += 1
        self.deletes_by_reason[reason] = self.deletes_by_reason.get(reason, 0) + 1

    def as_dict(self) -> dict:
        return {
            "gets": self.gets,
            "puts": self.puts,
            "touches": self.touches,
            "deletes": self.deletes,
            "deletes_by_reason": dict(self.deletes_by_reason),
        }


@runtime_checkable
class CacheBackend(Protocol):
    """Element storage protocol the cache constructs through.

    Implementations own the ``{element_id: SemanticElement}`` mapping and
    (optionally) the embedding arena. The cache routes every mutation
    through :meth:`put` / :meth:`delete` / :meth:`touch`, so a decorator
    backend sees the complete, ordered mutation stream.
    """

    @property
    def elements(self) -> Mapping[int, SemanticElement]:
        """Live element mapping (the Sine pipeline scans this zero-copy)."""
        ...

    @property
    def arena(self):
        """The embedding arena rows live in, or None."""
        ...

    def get(self, element_id: int) -> SemanticElement | None: ...

    def put(self, element: SemanticElement) -> None: ...

    def touch(self, element: SemanticElement) -> None:
        """Record a hit-driven state change (frequency / last access)."""
        ...

    def delete(
        self, element_id: int, reason: str = "delete"
    ) -> SemanticElement | None:
        """Remove an element; releases its arena slot. ``reason`` is one of
        :data:`DELETE_REASONS`."""
        ...

    def scan(self) -> Iterator[SemanticElement]: ...

    def stats(self) -> dict: ...

    # -- embedding-slot hooks ------------------------------------------------
    def bind_embedding(self, embedding: np.ndarray) -> tuple[np.ndarray, int | None]:
        """Take ownership of a new element's embedding.

        Returns ``(embedding, arena_slot)`` — for arena-backed stores the
        returned embedding is a zero-copy view of the allocated row.
        """
        ...

    def release_embedding(self, slot: int | None) -> None: ...

    def flush(self) -> None:
        """Push any buffered state to the durable medium (no-op in memory)."""
        ...

    def close(self) -> None: ...


class InProcessBackend:
    """The classic in-memory dict (+ optional arena) store.

    This is byte-for-byte the storage behaviour :class:`AsteriaCache` had
    before the backend split: a plain dict the retrieval path scans
    directly, and an optional :class:`~repro.core.arena.EmbeddingArena`
    whose rows back element embeddings zero-copy.
    """

    name = "inprocess"
    durable = False

    def __init__(self, arena=None) -> None:
        self._elements: dict[int, SemanticElement] = {}
        self._arena = arena
        self.ops = BackendOpStats()

    # -- protocol ------------------------------------------------------------
    @property
    def elements(self) -> dict[int, SemanticElement]:
        return self._elements

    @property
    def arena(self):
        return self._arena

    def get(self, element_id: int) -> SemanticElement | None:
        self.ops.gets += 1
        return self._elements.get(element_id)

    def put(self, element: SemanticElement) -> None:
        self._elements[element.element_id] = element
        self.ops.puts += 1

    def touch(self, element: SemanticElement) -> None:
        self.ops.touches += 1

    def delete(
        self, element_id: int, reason: str = "delete"
    ) -> SemanticElement | None:
        element = self._elements.pop(element_id, None)
        if element is None:
            return None
        if element.arena_slot is not None:
            self._arena.release(element.arena_slot)
            element.arena_slot = None
        self.ops.note_delete(reason)
        return element

    def scan(self) -> Iterator[SemanticElement]:
        return iter(list(self._elements.values()))

    def __len__(self) -> int:
        return len(self._elements)

    def __contains__(self, element_id: int) -> bool:
        return element_id in self._elements

    def stats(self) -> dict:
        return {"backend": self.name, "items": len(self._elements), **self.ops.as_dict()}

    def bind_embedding(self, embedding: np.ndarray) -> tuple[np.ndarray, int | None]:
        if self._arena is None:
            return embedding, None
        slot = self._arena.allocate(embedding)
        return self._arena.get(slot), slot

    def release_embedding(self, slot: int | None) -> None:
        if slot is not None and self._arena is not None:
            self._arena.release(slot)

    def flush(self) -> None:
        pass

    def close(self) -> None:
        pass

    def __repr__(self) -> str:
        return f"InProcessBackend(items={len(self._elements)}, arena={self._arena!r})"


class WrappingBackend:
    """Base for decorator backends: delegate everything to ``inner``.

    Subclasses override the mutation methods they observe and call
    ``super()`` (or ``self.inner``) to keep the chain intact. The element
    mapping and arena are always the innermost store's — wrapping never
    copies state, so a cache can be wrapped mid-life (see
    :meth:`repro.core.cache.AsteriaCache.wrap_backend`).
    """

    def __init__(self, inner: CacheBackend) -> None:
        self.inner = inner

    @property
    def elements(self) -> Mapping[int, SemanticElement]:
        return self.inner.elements

    @property
    def arena(self):
        return self.inner.arena

    def get(self, element_id: int) -> SemanticElement | None:
        return self.inner.get(element_id)

    def put(self, element: SemanticElement) -> None:
        self.inner.put(element)

    def touch(self, element: SemanticElement) -> None:
        self.inner.touch(element)

    def delete(
        self, element_id: int, reason: str = "delete"
    ) -> SemanticElement | None:
        return self.inner.delete(element_id, reason=reason)

    def scan(self) -> Iterator[SemanticElement]:
        return self.inner.scan()

    def __len__(self) -> int:
        return len(self.inner.elements)

    def __contains__(self, element_id: int) -> bool:
        return element_id in self.inner.elements

    def stats(self) -> dict:
        return self.inner.stats()

    def bind_embedding(self, embedding: np.ndarray) -> tuple[np.ndarray, int | None]:
        return self.inner.bind_embedding(embedding)

    def release_embedding(self, slot: int | None) -> None:
        self.inner.release_embedding(slot)

    def flush(self) -> None:
        self.inner.flush()

    def close(self) -> None:
        self.inner.close()
