"""Lifecycle tests for the contiguous embedding arena."""

import gc
import weakref

import numpy as np
import pytest

from repro.ann.base import normalize_batch
from repro.core import Query
from repro.core.arena import EmbeddingArena
from repro.core.types import FetchResult
from repro.factory import build_semantic_cache

DIM = 16


def normalize(vector: np.ndarray) -> np.ndarray:
    return normalize_batch(np.asarray(vector)[None, :])[0]


@pytest.fixture
def rng():
    return np.random.default_rng(7)


def test_slots_hand_out_in_order():
    arena = EmbeddingArena(DIM, initial_capacity=8)
    slots = [arena.allocate(np.ones(DIM, dtype=np.float32)) for _ in range(4)]
    assert slots == [0, 1, 2, 3]
    assert arena._high_water == 4
    assert len(arena) == 4


def test_allocate_normalizes_like_base(rng):
    arena = EmbeddingArena(DIM)
    vector = rng.normal(size=DIM).astype(np.float32)
    slot = arena.allocate(vector)
    np.testing.assert_array_equal(arena.get(slot), normalize(vector))


def test_zero_vector_stored_as_zero():
    arena = EmbeddingArena(DIM)
    slot = arena.allocate(np.zeros(DIM, dtype=np.float32))
    assert not arena.get(slot).any()


def test_release_zeroes_row_and_reuses_slot(rng):
    arena = EmbeddingArena(DIM, initial_capacity=8)
    slots = [arena.allocate(rng.normal(size=DIM)) for _ in range(3)]
    arena.release(slots[1])
    assert slots[1] not in arena
    assert not arena._matrix[slots[1]].any()
    again = arena.allocate(rng.normal(size=DIM))
    assert again == slots[1]
    assert arena.reuses == 1


def test_release_unallocated_slot_raises():
    arena = EmbeddingArena(DIM)
    with pytest.raises(KeyError):
        arena.release(0)
    slot = arena.allocate(np.ones(DIM))
    arena.release(slot)
    with pytest.raises(KeyError):
        arena.release(slot)


def test_get_rejects_freed_slot():
    arena = EmbeddingArena(DIM)
    slot = arena.allocate(np.ones(DIM))
    arena.release(slot)
    with pytest.raises(KeyError):
        arena.get(slot)


def test_high_water_sinks_past_trailing_release(rng):
    arena = EmbeddingArena(DIM, initial_capacity=8)
    slots = [arena.allocate(rng.normal(size=DIM)) for _ in range(5)]
    arena.release(slots[4])
    arena.release(slots[3])
    assert arena._high_water == 3
    arena.release(slots[1])  # interior hole: mark stays
    assert arena._high_water == 3


def test_grow_doubles_capacity_and_preserves_rows(rng):
    arena = EmbeddingArena(DIM, initial_capacity=2)
    vectors = rng.normal(size=(5, DIM)).astype(np.float32)
    slots = [arena.allocate(v) for v in vectors]
    assert arena.capacity == 8
    assert arena.grows == 2
    for slot, vector in zip(slots, vectors):
        np.testing.assert_array_equal(arena.get(slot), normalize(vector))


def test_churn_reuses_free_slots_without_growth(rng):
    """Admit/evict churn at steady occupancy never grows the matrix."""
    arena = EmbeddingArena(DIM, initial_capacity=32)
    live = [arena.allocate(rng.normal(size=DIM)) for _ in range(24)]
    for _ in range(500):
        victim = live.pop(int(rng.integers(len(live))))
        arena.release(victim)
        live.append(arena.allocate(rng.normal(size=DIM)))
    assert arena.grows == 0
    assert arena.capacity == 32
    assert arena.reuses >= 500 - 32
    assert len(arena) == 24


def test_scores_slice_to_high_water(rng):
    arena = EmbeddingArena(DIM, initial_capacity=64)
    for _ in range(5):
        arena.allocate(rng.normal(size=DIM))
    queries = normalize(rng.normal(size=DIM))[None, :]
    assert arena.scores(queries).shape == (1, 5)


@pytest.mark.parametrize("dim", [64, 256, 384])
def test_a_rows_score_is_the_same_at_every_size(dim):
    """A row scores the same float32 bits at every high-water mark. Sine's
    recall stage replays a retrieval on this contract (DESIGN §7): on a BLAS
    where it fails, its float guard must come back."""
    rng = np.random.default_rng(dim)
    size = 1100
    arena = EmbeddingArena(dim, initial_capacity=3)  # grows through odd sizes
    query = normalize(rng.normal(size=dim))[None, :]
    scored = []
    for vector in rng.normal(size=(size, dim)).astype(np.float32):
        arena.allocate(vector)
        scored.append(arena.scores(query)[0])
    final = scored[-1]
    for count, row in enumerate(scored, 1):
        np.testing.assert_array_equal(row, final[:count], err_msg=f"{count} rows")


def test_views_are_read_only(rng):
    arena = EmbeddingArena(DIM)
    slot = arena.allocate(rng.normal(size=DIM))
    with pytest.raises(ValueError):
        arena.get(slot)[0] = 1.0


def test_dim_validation():
    arena = EmbeddingArena(DIM)
    with pytest.raises(ValueError):
        arena.allocate(np.ones(DIM + 1, dtype=np.float32))
    with pytest.raises(ValueError):
        arena.allocate(np.ones((2, DIM), dtype=np.float32))
    with pytest.raises(ValueError):
        EmbeddingArena(0)
    with pytest.raises(ValueError):
        EmbeddingArena(DIM, initial_capacity=0)


def test_stamps_follow_allocation_order(rng):
    arena = EmbeddingArena(DIM, initial_capacity=2)
    slots = [arena.allocate(rng.normal(size=DIM)) for _ in range(3)]
    assert [arena.stamp(slot) for slot in slots] == [1, 2, 3]
    assert arena.allocations == 3
    arena.release(slots[0])
    again = arena.allocate(rng.normal(size=DIM))  # reuses slot 0, grown arena
    assert again == slots[0] and arena.stamp(again) == 4
    assert arena.allocated_since(2).tolist() == [0, 2]
    assert arena.allocated_since(4).size == 0


def test_a_grow_frees_the_old_matrix():
    """No element holds a view of the matrix, so the one a grow replaced
    is freed at once."""
    cache = build_semantic_cache(seed=0)
    arena = cache.sine.index.arena
    old = weakref.ref(arena._matrix)
    fetch = FetchResult(result="r", latency=0.3, service_latency=0.3, cost=0.0)
    for number in range(arena.capacity + 1):  # 1 025 inserts
        cache.insert(Query(f"distinct fact number {number}"), fetch, 0.0)
    assert arena.grows == 1
    gc.collect()
    assert old() is None, "old matrix alive"
