"""Contiguous embedding storage: the cache's hot-path memory layout.

Per-element embedding arrays make the lookup fast path pay a Python object,
a refcount, and a pointer chase per semantic element. The **arena** replaces
them with one growable ``(capacity, dim)`` matrix plus a free-list: every
element's embedding lives in a *slot* (one row), handed out on admission and
recycled on eviction. Consumers — the cache, Sine, and the index —
score queries against contiguous row views instead of gathering per-SE
arrays, which is what makes the batched lookup path one matrix product.

:class:`EmbeddingArena` holds float32 rows, bit-exact with per-element
storage: vectors are unit-normalised on allocation with the same math as
:func:`repro.ann.base.normalize_batch`, so arena-backed search decisions
replay the per-vector decisions exactly.

Slot lifecycle invariants:

* ``allocate``/``allocate_batch`` normalise and copy the vector(s) in;
  freed slots are reused before the high-water mark advances, and the
  matrix doubles when the free-list empties.
* ``release`` zeroes the row (a freed slot scores 0 against any query, so
  stale rows can never outrank live ones) and recycles the slot.
* Rows never move except under :meth:`compact`, which packs live rows to
  the front and returns an ``old slot -> new slot`` remap for index and
  element handles; views handed out earlier stay value-correct because row
  contents are immutable between allocate and release.
"""

from __future__ import annotations

import numpy as np

__all__ = ["EmbeddingArena", "build_arena"]


class EmbeddingArena:
    """Float32 rows in one growable matrix, handed out and recycled by slot.

    Unallocated capacity is tracked in two parts: ``_free`` holds released
    slots (reused LIFO, before any fresh slot), and ``_next_fresh`` points at
    the lowest never-used slot, so slots hand out as 0, 1, 2, ... on a fresh
    arena — the same sequence :class:`~repro.ann.flat.FlatIndex` used for its
    internal matrix, which keeps arena-backed scoring bit-identical to the
    pre-arena layout. Liveness is a bool row mask rather than a Python set,
    so bulk fills and compaction scans stay vectorised at 10^7-slot scale.
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
        self._matrix = np.zeros((initial_capacity, dim), dtype=np.float32)
        self._count = 0
        #: 1 + highest slot ever occupied; scoring slices rows to this.
        self._high_water = 0
        # Lifecycle counters (read by tests and the micro-bench).
        self.allocations = 0
        self.releases = 0
        self.reuses = 0
        self.grows = 0
        self.compactions = 0

    # -- introspection -------------------------------------------------------
    @property
    def dim(self) -> int:
        return self._dim

    @property
    def capacity(self) -> int:
        return self._capacity

    @property
    def high_water(self) -> int:
        return self._high_water

    def __len__(self) -> int:
        return self._count

    def __contains__(self, slot: int) -> bool:
        return 0 <= slot < self._capacity and bool(self._live_mask[slot])

    def live_slots(self) -> list[int]:
        """Currently allocated slots, ascending."""
        return [int(slot) for slot in np.flatnonzero(self._live_mask)]

    # -- allocation ----------------------------------------------------------
    def allocate(self, vector: np.ndarray) -> int:
        """Store ``vector`` (unit-normalised) in a slot; returns the slot.

        Routed through :meth:`allocate_batch` so the scalar and batch paths
        share one normalisation expression — the same one
        :func:`repro.ann.base.normalize_batch` uses — keeping arena rows
        bit-identical to per-element normalised arrays.
        """
        vector = np.asarray(vector, dtype=np.float32)
        if vector.ndim != 1 or vector.shape[0] != self._dim:
            raise ValueError(f"expected dim {self._dim}, got shape {vector.shape}")
        return int(self.allocate_batch(vector[None, :])[0])

    def allocate_batch(self, vectors: np.ndarray) -> np.ndarray:
        """Store each row of ``vectors``; returns the slots as an int64 array.

        Vectorised: one normalisation pass and one fancy-index store for the
        whole batch, so bulk fills (persistence restore, synthetic soak
        tests) run at memory bandwidth instead of per-row Python cost.
        """
        vectors = np.asarray(vectors, dtype=np.float32)
        if vectors.ndim != 2 or vectors.shape[1] != self._dim:
            raise ValueError(
                f"expected (n, {self._dim}) vectors, got shape {vectors.shape}"
            )
        n = vectors.shape[0]
        slots = self._take_slots(n)
        norms = np.linalg.norm(vectors, axis=1, keepdims=True)
        unit = vectors / np.where(norms == 0, np.float32(1.0), norms)
        self._matrix[slots] = unit
        return slots

    def _take_slots(self, n: int) -> np.ndarray:
        """Claim ``n`` slots: released ones LIFO first, then fresh capacity."""
        slots = np.empty(n, dtype=np.int64)
        filled = 0
        while filled < n:
            if self._free:
                take = min(n - filled, len(self._free))
                reused = self._free[len(self._free) - take :]
                del self._free[len(self._free) - take :]
                reused.reverse()  # pop order: most recently released first
                slots[filled : filled + take] = reused
                self.reuses += take
                top = int(slots[filled : filled + take].max()) + 1
                if top > self._high_water:
                    self._high_water = top
                filled += take
            elif self._next_fresh < self._capacity:
                take = min(n - filled, self._capacity - self._next_fresh)
                start = self._next_fresh
                slots[filled : filled + take] = np.arange(
                    start, start + take, dtype=np.int64
                )
                self._next_fresh = start + take
                if self._next_fresh > self._high_water:
                    self._high_water = self._next_fresh
                filled += take
            else:
                self._grow()
        self._live_mask[slots] = True
        self._count += n
        self.allocations += n
        return slots

    def release(self, slot: int) -> None:
        """Recycle ``slot``; its row is zeroed so it can never score > 0."""
        if slot not in self:
            raise KeyError(f"slot {slot} not allocated")
        self._live_mask[slot] = False
        self._count -= 1
        self._matrix[slot] = 0.0
        self._free.append(slot)
        self.releases += 1
        # Let the high-water mark sink past a trailing run of freed slots so
        # scoring never pays for rows above the live region.
        while self._high_water > 0 and not self._live_mask[self._high_water - 1]:
            self._high_water -= 1

    def _grow(self) -> None:
        old = self._capacity
        self._capacity = old * 2
        grown = np.zeros((self._capacity, self._dim), dtype=np.float32)
        grown[:old] = self._matrix
        self._matrix = grown
        mask = np.zeros(self._capacity, dtype=bool)
        mask[:old] = self._live_mask
        self._live_mask = mask
        self.grows += 1

    # -- compaction ----------------------------------------------------------
    def compact(self) -> dict[int, int]:
        """Pack live rows to the front; returns ``{old_slot: new_slot}``.

        Only moved slots appear in the remap. Relative slot order is
        preserved, the high-water mark drops to the live count, and the
        free-list is rebuilt. Callers must propagate the remap to anything
        holding slot handles (the cache does this for its elements and
        index).
        """
        live = [int(slot) for slot in np.flatnonzero(self._live_mask)]
        remap = {old: new for new, old in enumerate(live) if old != new}
        count = len(live)
        if remap:
            self._matrix[:count] = self._matrix[live].copy()
            self._matrix[count : self._high_water] = 0.0
        self._live_mask[:] = False
        self._live_mask[:count] = True
        self._count = count
        self._high_water = count
        self._free = []
        self._next_fresh = count
        self.compactions += 1
        return remap

    # -- reads -------------------------------------------------------------
    def get(self, slot: int) -> np.ndarray:
        """Read-only view of the row (no copy; stays valid until release)."""
        if slot not in self:
            raise KeyError(f"slot {slot} not allocated")
        view = self._matrix[slot]
        view.flags.writeable = False
        return view

    def rows(self) -> np.ndarray:
        """Read-only ``(high_water, dim)`` view of the occupied region."""
        view = self._matrix[: self._high_water]
        view.flags.writeable = False
        return view

    def scores(self, queries: np.ndarray) -> np.ndarray:
        """``queries @ rows.T`` over the occupied region — one matrix product.

        ``queries`` is ``(n, dim)`` float32 (normalised by the caller); the
        result is ``(n, high_water)``. Freed rows are zero so they score 0.
        """
        return queries @ self._matrix[: self._high_water].T

    def memory_bytes(self) -> int:
        """Bytes held by row storage (the envelope tests gate on this)."""
        return self._matrix.nbytes

    def __repr__(self) -> str:
        return (
            f"{type(self).__name__}(dim={self._dim}, live={len(self)}, "
            f"capacity={self._capacity}, high_water={self._high_water})"
        )


def build_arena(
    kind: "str | None", dim: int, initial_capacity: int = 1024
) -> "EmbeddingArena | None":
    """The arena by name: ``float32``, or None / ``none`` for no arena."""
    if kind is None or kind == "none":
        return None
    if kind == "float32":
        return EmbeddingArena(dim, initial_capacity)
    raise ValueError(f"unknown arena kind {kind!r}; expected float32/none")
