"""Contiguous embedding storage: the cache's hot-path memory layout.

Per-element embedding arrays make the lookup fast path pay a Python object,
a refcount, and a pointer chase per semantic element. The **arena** replaces
them with one growable ``(capacity, dim)`` matrix plus a free-list: every
element's embedding lives in a *slot* (one row), handed out on admission and
recycled on eviction. It is the only copy: the index scores it in place and
an element holds its slot number, never a view, so a grow frees the matrix
it replaced.

:class:`EmbeddingArena` holds float32 rows, unit-normalised on allocation
with the same math as :func:`repro.ann.base.normalize_batch`.

Slot lifecycle invariants:

* ``allocate`` normalises and copies the vector in, reusing the most
  recently freed slot before the high-water mark advances; the matrix
  doubles when the free-list empties.
* ``allocate`` stamps the slot with the running ``allocations`` count, so
  "stored since stamp s" is one comparison (Sine's recall stage) and a
  stamp orders elements by admission (the cache's expiry heap).
* ``release`` zeroes the row (a freed slot scores 0 against any query, so
  stale rows can never outrank live ones) and recycles the slot.
* A row keeps its slot and its contents from allocate to release.
* A row's score is a function of the row and the query alone. BLAS
  computes a tail of fewer than ``BLOCK`` rows with a different kernel, so
  its float32 bits would move with the row count; every product therefore
  runs over whole blocks of ``BLOCK`` rows and drops the padding after.
  ``tests/test_arena.py::test_a_rows_score_is_the_same_at_every_size`` is
  that contract (DESIGN §7).
"""

from __future__ import annotations

import numpy as np

__all__ = ["EmbeddingArena"]

#: Rows per BLAS block: products run over a multiple of this many rows.
BLOCK = 8


def _blocks(rows: int) -> int:
    """``rows`` rounded up to whole blocks."""
    return -(-rows // BLOCK) * BLOCK


class EmbeddingArena:
    """Float32 rows in one growable matrix, handed out and recycled by slot.

    Unallocated capacity is tracked in two parts: ``_free`` holds released
    slots (reused LIFO, before any fresh slot), and ``_next_fresh`` points at
    the lowest never-used slot, so slots hand out as 0, 1, 2, ... on a fresh
    arena. Each slot also carries its liveness flag and the stamp of the
    allocation that stored its row, so a slot costs ``4 * dim + 9`` bytes.
    """

    def __init__(self, dim: int, initial_capacity: int = 1024) -> None:
        if dim < 1:
            raise ValueError(f"dim must be >= 1, got {dim}")
        if initial_capacity < 1:
            raise ValueError(f"initial_capacity must be >= 1, got {initial_capacity}")
        self._dim = dim
        self._capacity = initial_capacity
        #: Released slots, reused LIFO before fresh capacity is touched.
        self._free: list[int] = []
        #: Lowest slot never handed out; everything above is virgin capacity.
        self._next_fresh = 0
        self._live_mask = np.zeros(initial_capacity, dtype=bool)
        #: ``capacity`` rounded up to whole blocks, so a product never runs
        #: past the end of the matrix.
        self._matrix = np.zeros((_blocks(initial_capacity), dim), dtype=np.float32)
        self._count = 0
        #: 1 + highest slot ever occupied; scoring slices rows to this.
        self._high_water = 0
        #: Allocation sequence per slot: the ``allocations`` count when the
        #: slot's current row was stored (a freed slot keeps its last).
        self._stamps = np.zeros(initial_capacity, dtype=np.int64)
        #: Rows ever stored, which is also the latest stamp.
        self.allocations = 0
        self.reuses = 0
        self.grows = 0

    # -- introspection -------------------------------------------------------
    @property
    def dim(self) -> int:
        return self._dim

    @property
    def capacity(self) -> int:
        return self._capacity

    def __len__(self) -> int:
        return self._count

    def __contains__(self, slot: int) -> bool:
        return 0 <= slot < self._capacity and bool(self._live_mask[slot])

    # -- allocation ----------------------------------------------------------
    def allocate(self, vector: np.ndarray) -> int:
        """Store ``vector`` (unit-normalised) in a slot; returns the slot.

        A released slot is reused (LIFO) before fresh capacity; the matrix
        doubles when neither is left. The row is normalised with the
        expression :func:`repro.ann.base.normalize_batch` uses, so it is
        bit-identical to a normalised per-element array.
        """
        vector = np.asarray(vector, dtype=np.float32)
        if vector.ndim != 1 or vector.shape[0] != self._dim:
            raise ValueError(f"expected dim {self._dim}, got shape {vector.shape}")
        if self._free:
            slot = self._free.pop()
            self.reuses += 1
        else:
            if self._next_fresh == self._capacity:
                self._grow()
            slot = self._next_fresh
            self._next_fresh += 1
        if slot >= self._high_water:
            self._high_water = slot + 1
        row = vector[None, :]
        norm = np.linalg.norm(row, axis=1, keepdims=True)
        self._matrix[slot] = (row / np.where(norm == 0, np.float32(1.0), norm))[0]
        self._live_mask[slot] = True
        self._count += 1
        self.allocations += 1
        self._stamps[slot] = self.allocations
        return slot

    def release(self, slot: int) -> None:
        """Recycle ``slot``; its row is zeroed so it can never score > 0."""
        if slot not in self:
            raise KeyError(f"slot {slot} not allocated")
        self._live_mask[slot] = False
        self._count -= 1
        self._matrix[slot] = 0.0
        self._free.append(slot)
        # Let the high-water mark sink past a trailing run of freed slots so
        # scoring never pays for rows above the live region.
        while self._high_water > 0 and not self._live_mask[self._high_water - 1]:
            self._high_water -= 1

    def _grow(self) -> None:
        old = self._capacity
        self._capacity = old * 2
        grown = np.zeros((_blocks(self._capacity), self._dim), dtype=np.float32)
        grown[: self._matrix.shape[0]] = self._matrix
        self._matrix = grown
        mask = np.zeros(self._capacity, dtype=bool)
        mask[:old] = self._live_mask
        self._live_mask = mask
        stamps = np.zeros(self._capacity, dtype=np.int64)
        stamps[:old] = self._stamps
        self._stamps = stamps
        self.grows += 1

    # -- reads -------------------------------------------------------------
    def get(self, slot: int) -> np.ndarray:
        """Read-only view of the row (no copy; stays valid until release)."""
        if slot not in self:
            raise KeyError(f"slot {slot} not allocated")
        view = self._matrix[slot]
        view.flags.writeable = False
        return view

    def stamp(self, slot: int) -> int:
        """The allocation sequence of ``slot``'s current row."""
        return int(self._stamps[slot])

    def allocated_since(self, stamp: int) -> np.ndarray:
        """The slots whose row was stored after allocation ``stamp`` (any
        freed since score 0)."""
        return (self._stamps[: self._high_water] > stamp).nonzero()[0]

    def scores_at(self, slots: np.ndarray, query: np.ndarray) -> np.ndarray:
        """``query`` scored against the rows at ``slots`` (a freed row
        scores 0). The gather is not padded to whole blocks, so a row may
        differ from its :meth:`scores` bits in the last place."""
        return self._matrix.take(slots, axis=0) @ query

    def scores(self, queries: np.ndarray) -> np.ndarray:
        """``queries @ rows.T`` over the occupied region — one matrix
        product over whole blocks (see the module docstring).

        ``queries`` is ``(n, dim)`` float32 (normalised by the caller); the
        result is ``(n, high_water)``. Freed rows are zero so they score 0.
        """
        count = self._high_water
        return (queries @ self._matrix[: _blocks(count)].T)[:, :count]

    def __repr__(self) -> str:
        return (
            f"{type(self).__name__}(dim={self._dim}, live={len(self)}, "
            f"capacity={self._capacity}, high_water={self._high_water})"
        )

