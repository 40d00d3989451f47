"""Tests for the exact flat index."""

import random

import numpy as np
import pytest

from repro.ann import FlatIndex
from repro.core.arena import EmbeddingArena


def unit(rng, dim=16):
    vector = rng.standard_normal(dim).astype(np.float32)
    return vector / np.linalg.norm(vector)


@pytest.fixture
def rng():
    return np.random.default_rng(0)


class TestFlatIndexBasics:
    def test_empty_search_returns_nothing(self):
        index = FlatIndex(8)
        assert index.search(np.ones(8), k=3) == []
        with pytest.raises(ValueError):
            index.search(np.ones(8), k=0)  # refused even with nothing to rank

    def test_add_and_find_self(self, rng):
        index = FlatIndex(16)
        vector = unit(rng)
        index.add(1, vector)
        hits = index.search(vector, k=1)
        assert hits[0].key == 1
        assert hits[0].score == pytest.approx(1.0, abs=1e-5)

    def test_duplicate_key_rejected(self, rng):
        index = FlatIndex(16)
        index.add(1, unit(rng))
        with pytest.raises(KeyError):
            index.add(1, unit(rng))

    def test_wrong_dim_rejected(self, rng):
        index = FlatIndex(16)
        with pytest.raises(ValueError):
            index.add(1, np.ones(8))

    def test_contains_and_len(self, rng):
        index = FlatIndex(16)
        index.add(5, unit(rng))
        assert 5 in index and 6 not in index
        assert len(index) == 1

    def test_remove(self, rng):
        index = FlatIndex(16)
        index.add(1, unit(rng))
        index.remove(1)
        assert len(index) == 0
        assert index.search(unit(rng), k=1) == []

    def test_remove_missing_rejected(self):
        with pytest.raises(KeyError):
            FlatIndex(16).remove(99)

    def test_k_must_be_positive(self, rng):
        index = FlatIndex(16)
        index.add(1, unit(rng))
        with pytest.raises(ValueError):
            index.search(unit(rng), k=0)

    def test_vector_roundtrip(self, rng):
        index = FlatIndex(16)
        vector = unit(rng)
        index.add(1, vector)
        assert np.allclose(index.vector(1), vector, atol=1e-6)

    def test_vectors_normalised_on_insert(self):
        index = FlatIndex(4)
        index.add(1, np.array([2.0, 0.0, 0.0, 0.0]))
        assert np.allclose(index.vector(1), [1.0, 0.0, 0.0, 0.0])


class TestFlatIndexSearch:
    def test_results_sorted_by_score(self, rng):
        index = FlatIndex(16)
        for key in range(20):
            index.add(key, unit(rng))
        hits = index.search(unit(rng), k=10)
        scores = [hit.score for hit in hits]
        assert scores == sorted(scores, reverse=True)

    def test_top_k_matches_brute_force(self, rng):
        dim = 16
        vectors = {key: unit(rng, dim) for key in range(100)}
        index = FlatIndex(dim)
        for key, vector in vectors.items():
            index.add(key, vector)
        query = unit(rng, dim)
        expected = sorted(
            vectors, key=lambda key: -float(np.dot(vectors[key], query))
        )[:5]
        got = [hit.key for hit in index.search(query, k=5)]
        assert got == expected

    def test_k_larger_than_population(self, rng):
        index = FlatIndex(16)
        for key in range(3):
            index.add(key, unit(rng))
        assert len(index.search(unit(rng), k=10)) == 3

    def test_slot_reuse_after_remove(self, rng):
        index = FlatIndex(16, initial_capacity=2)
        index.add(1, unit(rng))
        index.add(2, unit(rng))
        index.remove(1)
        vector = unit(rng)
        index.add(3, vector)
        hits = index.search(vector, k=1)
        assert hits[0].key == 3

    def test_growth_beyond_initial_capacity(self, rng):
        index = FlatIndex(16, initial_capacity=2)
        for key in range(50):
            index.add(key, unit(rng))
        assert len(index) == 50
        assert len(index.search(unit(rng), k=50)) == 50

    def test_removed_keys_never_returned(self, rng):
        index = FlatIndex(16)
        vectors = {key: unit(rng) for key in range(30)}
        for key, vector in vectors.items():
            index.add(key, vector)
        for key in range(0, 30, 2):
            index.remove(key)
        hits = index.search(unit(rng), k=30)
        assert all(hit.key % 2 == 1 for hit in hits)

    def test_churn_consistency(self, rng):
        """Interleaved add/remove keeps exact top-1 behaviour."""
        index = FlatIndex(8)
        live = {}
        for step in range(300):
            if live and step % 3 == 0:
                victim = sorted(live)[step % len(live)]
                index.remove(victim)
                del live[victim]
            else:
                vector = unit(rng, 8)
                index.add(step, vector)
                live[step] = vector
        query = unit(rng, 8)
        expected = max(live, key=lambda key: float(np.dot(live[key], query)))
        assert index.search(query, k=1)[0].key == expected

    def test_tie_break_prefers_smaller_key(self):
        """Equal scores rank by key ascending, across the k cut too."""
        index = FlatIndex(4)
        shared = np.array([1.0, 0.0, 0.0, 0.0], dtype=np.float32)
        for key in (9, 3, 7):
            index.add(key, shared)
        assert [hit.key for hit in index.search(shared, k=3)] == [3, 7, 9]
        assert [hit.key for hit in index.search(shared, k=2)] == [3, 7]


class TestFlatIndexRemoveRecycling:
    """Slot recycling and high-water-mark behaviour under churn."""

    def _assert_free_list_integrity(self, index):
        """Free slots + live slots partition the matrix capacity exactly."""
        arena = index._arena
        capacity = arena._matrix.shape[0]
        # Unallocated capacity = released slots + the untouched fresh region.
        free = list(arena._free) + list(range(arena._next_fresh, capacity))
        live = set(np.flatnonzero(index._slot_keys >= 0).tolist())
        assert len(free) == len(set(free)), "duplicate slots in the free list"
        assert not (set(free) & live), "a slot is both free and live"
        assert len(free) + len(live) == capacity
        assert all(slot < arena._high_water for slot in live)
        # Freed slots must be zeroed so they can never score above 0.
        for slot in free:
            assert not arena._matrix[slot].any()

    def test_high_water_sinks_past_trailing_removes(self, rng):
        index = FlatIndex(16)
        vectors = {key: unit(rng) for key in range(10)}
        for key, vector in vectors.items():
            index.add(key, vector)
        assert index._arena._high_water == 10
        for key in (9, 8, 7):  # a trailing run of slots
            index.remove(key)
        assert index._arena._high_water == 7
        self._assert_free_list_integrity(index)
        # Search still exact over the survivors.
        query = unit(rng)
        expected = sorted(
            (key for key in vectors if key < 7),
            key=lambda key: (-float(np.dot(vectors[key], query)), key),
        )[:3]
        assert [hit.key for hit in index.search(query, k=3)] == expected

    def test_readd_after_trailing_remove_matches_brute_force(self, rng):
        """Remove a trailing run, re-add fresh keys, and scores stay exact."""
        index = FlatIndex(16, initial_capacity=4)
        vectors = {key: unit(rng) for key in range(12)}  # forces _grow twice
        for key, vector in vectors.items():
            index.add(key, vector)
        for key in (11, 10, 9, 8):
            index.remove(key)
            del vectors[key]
        assert index._arena._high_water == 8
        for key in range(100, 106):  # recycle the freed trailing slots
            vectors[key] = unit(rng)
            index.add(key, vectors[key])
        self._assert_free_list_integrity(index)
        for _ in range(5):
            query = unit(rng)
            got = index.search(query, 4)
            expected = sorted(
                vectors,
                key=lambda key: (-float(np.dot(vectors[key], query)), key),
            )[:4]
            assert [hit.key for hit in got] == expected
            for hit in got:
                assert hit.score == pytest.approx(
                    float(np.dot(vectors[hit.key], query)), abs=1e-5
                )

    def test_interleaved_churn_with_search(self, rng):
        """add/remove/search interleaved: free list and results stay
        consistent through grows, recycles, and high-water sinking."""
        index = FlatIndex(8, initial_capacity=2)
        live = {}
        next_key = 0
        for step in range(40):
            for _ in range(3):
                vector = unit(rng, 8)
                index.add(next_key, vector)
                live[next_key] = vector
                next_key += 1
            if step % 2 == 1:
                victims = sorted(live)[-2:]  # bias toward trailing slots
                for victim in victims:
                    index.remove(victim)
                    del live[victim]
            self._assert_free_list_integrity(index)
            for query in (unit(rng, 8), unit(rng, 8)):
                expected = sorted(
                    live,
                    key=lambda key: (-float(np.dot(live[key], query)), key),
                )[: min(3, len(live))]
                assert [hit.key for hit in index.search(query, 3)] == expected


class TestFlatIndexAgainstBruteForce:
    """Every mutation interleaved on a shared arena, every search checked
    against a reference that ranks in plain Python."""

    DIM = 16

    def _vector(self, rng):
        """Four entries of +-0.5: unit norm, and every dot product a multiple
        of 0.25 — exact in float32 whatever the summation order, so scores
        compare with ``==`` and exact ties are the common case."""
        vector = np.zeros(self.DIM, dtype=np.float32)
        for position in rng.sample(range(self.DIM), 4):
            vector[position] = rng.choice([0.5, -0.5])
        return vector

    def _check(self, index, live, queries):
        for k in {1, 4, max(1, len(live)), len(live) + 3}:
            for query in queries:
                ranked = sorted(
                    (-sum(float(a) * float(b) for a, b in zip(vector, query)), key)
                    for key, vector in live.items()
                )[:k]
                hits = index.search(query, k)
                assert [(hit.key, hit.score) for hit in hits] == [
                    (key, -negated) for negated, key in ranked
                ]
                assert all(type(hit.score) is float for hit in hits)

    def test_churn_on_a_shared_arena(self):
        rng = random.Random(4)
        arena = EmbeddingArena(self.DIM, initial_capacity=4)
        index = FlatIndex(self.DIM, initial_capacity=4, arena=arena)
        live = {}  # key -> vector, what a search may return
        lent = {}  # key -> slot the test allocated and registered via add_slot
        foreign = {}  # slot -> vector of rows the index was never told about
        gone = [self._vector(rng)]  # vectors of removed keys
        next_key = 0
        for step in range(400):
            op = rng.choice(["add", "add", "add_slot", "add_slot", "foreign",
                             "remove", "remove", "free_foreign"])
            vector = self._vector(rng)
            if op == "add":
                index.add(next_key, vector)
                live[next_key] = vector
                next_key += 1
            elif op == "add_slot":
                lent[next_key] = arena.allocate(vector)
                index.add_slot(next_key, lent[next_key])
                live[next_key] = vector
                next_key += 1
            elif op == "foreign":
                foreign[arena.allocate(vector)] = vector
            elif op == "remove" and live:
                key = rng.choice(sorted(live))
                index.remove(key)
                gone.append(live.pop(key))
                if key in lent:
                    arena.release(lent.pop(key))
            elif op == "free_foreign" and foreign:
                arena.release(foreign.popitem()[0])
            # Query with a fresh vector, a removed key's, and a foreign row's:
            # the last two score 1.0 against rows that must never come back.
            queries = [vector, rng.choice(gone)]
            if foreign:
                queries.append(rng.choice(list(foreign.values())))
            self._check(index, live, queries)
            assert len(index) == len(live)
        assert arena.grows and arena.reuses
        assert foreign and lent and len(live) > 4

    def test_input_checks(self):
        index = FlatIndex(self.DIM)
        index.add(1, np.ones(self.DIM))
        with pytest.raises(ValueError, match="k must be >= 1"):
            index.search(np.ones(self.DIM), 0)
        with pytest.raises(ValueError, match="expected dim"):
            index.search(np.ones(self.DIM + 1), 1)
        with pytest.raises(ValueError, match="expected dim"):
            index.search(np.ones((1, self.DIM)), 1)  # one query, not a batch
        with pytest.raises(KeyError, match="already present"):
            index.add_slot(1, 0)
        with pytest.raises(KeyError, match="not allocated"):
            index.add_slot(2, 7)
        with pytest.raises(ValueError, match="key must be >= 0"):
            index.add(-1, np.ones(self.DIM))
