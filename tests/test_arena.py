"""Lifecycle tests for the contiguous embedding arena."""

import numpy as np
import pytest

from repro.ann.base import normalize_batch
from repro.core.arena import EmbeddingArena, build_arena

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
    assert arena.high_water == 4
    assert len(arena) == 4


def test_allocate_normalizes_like_base(rng):
    arena = EmbeddingArena(DIM)
    vector = rng.normal(size=DIM).astype(np.float32)
    slot = arena.allocate(vector)
    np.testing.assert_array_equal(arena.get(slot), normalize(vector))


def test_allocate_batch_matches_scalar(rng):
    scalar = EmbeddingArena(DIM)
    batched = EmbeddingArena(DIM)
    vectors = rng.normal(size=(10, DIM)).astype(np.float32)
    scalar_slots = [scalar.allocate(v) for v in vectors]
    batch_slots = batched.allocate_batch(vectors)
    assert scalar_slots == list(batch_slots)
    np.testing.assert_array_equal(scalar.rows(), batched.rows())


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
    assert arena.high_water == 3
    arena.release(slots[1])  # interior hole: mark stays
    assert arena.high_water == 3


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


def test_compact_packs_live_rows_and_remaps(rng):
    arena = EmbeddingArena(DIM, initial_capacity=16)
    vectors = {slot: None for slot in range(8)}
    for slot in list(vectors):
        vector = rng.normal(size=DIM).astype(np.float32)
        assert arena.allocate(vector) == slot
        vectors[slot] = normalize(vector)
    for slot in (0, 2, 5, 7):
        arena.release(slot)
        del vectors[slot]
    remap = arena.compact()
    assert sorted(arena.live_slots()) == [0, 1, 2, 3]
    assert arena.high_water == 4
    assert arena.compactions == 1
    for old, expected in vectors.items():
        new = remap.get(old, old)
        np.testing.assert_array_equal(arena.get(new), expected)
    # The vacated tail is zeroed, so it can never outscore a live row.
    assert not arena._matrix[4:].any()


def test_compact_preserves_scores(rng):
    arena = EmbeddingArena(DIM, initial_capacity=16)
    kept = {}
    for i in range(10):
        vector = rng.normal(size=DIM).astype(np.float32)
        kept[arena.allocate(vector)] = normalize(vector)
    for slot in (1, 4, 8, 9):
        arena.release(slot)
        del kept[slot]
    query = normalize(rng.normal(size=DIM))[None, :]
    scored = arena.scores(query)[0]
    before = {slot: scored[slot] for slot in kept}
    remap = arena.compact()
    after = arena.scores(query)[0]
    # BLAS may block the smaller matrix differently, so allow last-ulp drift.
    for old, score in before.items():
        assert after[remap.get(old, old)] == pytest.approx(score, abs=1e-6)


def test_compact_noop_when_already_packed(rng):
    arena = EmbeddingArena(DIM)
    for _ in range(4):
        arena.allocate(rng.normal(size=DIM))
    assert arena.compact() == {}
    assert arena.high_water == 4


def test_scores_slice_to_high_water(rng):
    arena = EmbeddingArena(DIM, initial_capacity=64)
    for _ in range(5):
        arena.allocate(rng.normal(size=DIM))
    queries = normalize(rng.normal(size=DIM))[None, :]
    assert arena.scores(queries).shape == (1, 5)


def test_views_are_read_only(rng):
    arena = EmbeddingArena(DIM)
    slot = arena.allocate(rng.normal(size=DIM))
    with pytest.raises(ValueError):
        arena.get(slot)[0] = 1.0
    with pytest.raises(ValueError):
        arena.rows()[0, 0] = 1.0


def test_dim_validation():
    arena = EmbeddingArena(DIM)
    with pytest.raises(ValueError):
        arena.allocate(np.ones(DIM + 1, dtype=np.float32))
    with pytest.raises(ValueError):
        arena.allocate_batch(np.ones((2, DIM - 1), dtype=np.float32))
    with pytest.raises(ValueError):
        EmbeddingArena(0)
    with pytest.raises(ValueError):
        EmbeddingArena(DIM, initial_capacity=0)


def test_build_arena_dispatch():
    assert build_arena(None, DIM) is None
    assert build_arena("none", DIM) is None
    assert isinstance(build_arena("float32", DIM), EmbeddingArena)
    for refused in ("int8", "float16"):
        with pytest.raises(ValueError):
            build_arena(refused, DIM)
