"""Exact brute-force vector index.

Stores vectors in a contiguous :class:`~repro.core.arena.EmbeddingArena` and
scores queries with a single matrix product: recall 1.0 by construction, and
the cache's only index (DESIGN §12: to ~10^5 rows the scan costs under 10 ms
against a 300-500 ms remote call, and no approximate index in the repo beat
it at any size).

Scoring is sliced to the arena's *high-water mark* — the highest slot ever
occupied — so a sparsely filled index never pays for its reserved capacity,
and :meth:`FlatIndex.search_batch` scores a whole batch of queries with one
matrix-matrix product. Nothing else grows with the population: the key of each
row is an int64 array the mutations keep current, and a score row is ranked by
a partition plus a sort of the ``k`` survivors.

The arena may be private (built here when none is passed — the standalone
shape) or shared with the cache, in which case elements enter via
:meth:`FlatIndex.add_slot` with a slot the cache already allocated and the
index scores the cache's rows in place — no per-element copy, no rebuild.
"""

from __future__ import annotations

import numpy as np

from repro.ann.base import SearchHit, normalize_batch
from repro.core.arena import EmbeddingArena


def _top_k(scores: np.ndarray, keys: np.ndarray, top: int) -> list[SearchHit]:
    """The best ``top`` of one score row (``keys`` runs parallel): score
    descending, lower key on ties. All at or above the ``top``-th best score
    survive the cut, so a tie across it is settled by key, not column order."""
    if top < scores.shape[0]:
        floor = np.partition(scores, -top)[-top]
        chosen = np.flatnonzero(scores >= floor)
        scores, keys = scores[chosen], keys[chosen]
    ranked = sorted(zip((-scores).tolist(), keys.tolist()))[:top]
    return [SearchHit(score=-negated, key=key) for negated, key in ranked]


class FlatIndex:
    """Exact cosine-similarity index with slot reuse after deletion.

    ``arena`` swaps in shared row storage (see module docstring); slots added
    via :meth:`add` are owned by the index and released on :meth:`remove`,
    while slots registered via :meth:`add_slot` belong to the caller and are
    only forgotten.
    """

    def __init__(
        self,
        dim: int,
        initial_capacity: int = 1024,
        arena: EmbeddingArena | None = None,
    ) -> None:
        if dim < 1:
            raise ValueError(f"dim must be >= 1, got {dim}")
        if initial_capacity < 1:
            raise ValueError(f"initial_capacity must be >= 1, got {initial_capacity}")
        if arena is not None and arena.dim != dim:
            raise ValueError(f"arena dim {arena.dim} != index dim {dim}")
        self._dim = dim
        self._arena = arena if arena is not None else EmbeddingArena(
            dim, initial_capacity
        )
        self._key_to_slot: dict[int, int] = {}
        #: Key per arena slot; -1 = free, or another user's row on a shared arena.
        self._slot_keys = np.full(self._arena.capacity, -1, dtype=np.int64)
        #: Slots this index allocated itself (released on remove); externally
        #: registered slots stay alive for their owner.
        self._owned: set[int] = set()

    @property
    def dim(self) -> int:
        return self._dim

    @property
    def arena(self) -> EmbeddingArena:
        return self._arena

    def __len__(self) -> int:
        return len(self._key_to_slot)

    def __contains__(self, key: int) -> bool:
        return key in self._key_to_slot

    def _keys_upto(self, slots: int) -> np.ndarray:
        """The key array's first ``slots`` entries, grown if the arena has."""
        keys = self._slot_keys
        if slots > keys.shape[0]:
            grown = max(slots, self._arena.capacity) - keys.shape[0]
            self._slot_keys = np.concatenate([keys, np.full(grown, -1, np.int64)])
        return self._slot_keys[:slots]

    def add(self, key: int, vector: np.ndarray) -> None:
        """Insert ``vector`` (normalised) under ``key`` (a non-negative int)."""
        if key in self._key_to_slot:
            raise KeyError(f"key {key} already present")
        if key < 0:
            raise ValueError(f"key must be >= 0, got {key}")
        vector = np.asarray(vector, dtype=np.float32)
        if vector.ndim != 1 or vector.shape[0] != self._dim:
            raise ValueError(f"expected dim {self._dim}, got shape {vector.shape}")
        slot = self._arena.allocate(vector)
        self._owned.add(slot)
        self._key_to_slot[key] = slot
        self._keys_upto(slot + 1)[slot] = key

    def add_slot(self, key: int, slot: int) -> None:
        """Register an arena row the caller already allocated under ``key``."""
        if key in self._key_to_slot:
            raise KeyError(f"key {key} already present")
        if key < 0:
            raise ValueError(f"key must be >= 0, got {key}")
        if slot not in self._arena:
            raise KeyError(f"slot {slot} not allocated in the arena")
        self._key_to_slot[key] = slot
        self._keys_upto(slot + 1)[slot] = key

    def remove(self, key: int) -> None:
        """Delete ``key``; an index-owned slot is recycled."""
        slot = self._key_to_slot.pop(key, None)
        if slot is None:
            raise KeyError(f"key {key} not in index")
        self._slot_keys[slot] = -1
        if slot in self._owned:
            self._owned.remove(slot)
            self._arena.release(slot)

    def remap_slots(self, remap: dict[int, int]) -> None:
        """Apply an arena compaction remap to the slot handles."""
        if not remap:
            return
        self._key_to_slot = {
            key: remap.get(slot, slot) for key, slot in self._key_to_slot.items()
        }
        self._slot_keys.fill(-1)
        self._slot_keys[list(self._key_to_slot.values())] = list(self._key_to_slot)
        self._owned = {remap.get(slot, slot) for slot in self._owned}

    def vector(self, key: int) -> np.ndarray:
        """The stored (normalised) vector for ``key``."""
        slot = self._key_to_slot.get(key)
        if slot is None:
            raise KeyError(f"key {key} not in index")
        return np.array(self._arena.get(slot))

    def search(self, query: np.ndarray, k: int) -> list[SearchHit]:
        """Exact top-``k`` by cosine similarity, best first."""
        query = np.asarray(query, dtype=np.float32)
        if query.ndim != 1 or query.shape[0] != self._dim:
            raise ValueError(f"expected dim {self._dim}, got shape {query.shape}")
        return self.search_batch(query[None, :], k)[0]

    def search_batch(self, queries: np.ndarray, k: int) -> list[list[SearchHit]]:
        """Exact top-``k`` per query row, scored with one matrix product."""
        if k < 1:
            raise ValueError(f"k must be >= 1, got {k}")
        queries = np.asarray(queries, dtype=np.float32)
        if queries.ndim != 2 or queries.shape[1] != self._dim:
            raise ValueError(
                f"expected (n, {self._dim}) queries, got shape {queries.shape}"
            )
        n = queries.shape[0]
        count = len(self._key_to_slot)
        if n == 0 or not count:
            return [[] for _ in range(n)]
        # One matrix product over the arena's occupied region.
        scores = self._arena.scores(normalize_batch(queries))
        keys = self._keys_upto(scores.shape[1])
        if count != keys.shape[0]:
            # Some occupied rows are freed or another arena user's: drop them.
            mine = np.flatnonzero(keys >= 0)
            keys, scores = keys[mine], scores[:, mine]
        return [_top_k(row, keys, min(k, count)) for row in scores]

    def __repr__(self) -> str:
        return f"FlatIndex(dim={self._dim}, items={len(self)})"
