"""Equivalence pins for the arena fast path (tentpole acceptance).

Two claims from the issue, each pinned on a seeded workload:

* the float32 arena is a pure layout change — an arena-backed engine replays
  the per-vector baseline's hit/miss decisions and counters exactly;
* the index reaches the same search results whether vectors enter via
  ``add`` (index-owned storage) or ``add_slot`` (cache-owned arena rows).
"""

import dataclasses

import numpy as np
import pytest

from repro.ann.base import normalize_batch
from repro.ann.flat import FlatIndex
from repro.core import Query
from repro.core.arena import EmbeddingArena
from repro.factory import build_asteria_engine, build_remote

SEED = 0
N_QUERIES = 400
POPULATION = 24
TIME_STEP = 0.01
DIM = 32


def normalize(vector: np.ndarray) -> np.ndarray:
    return normalize_batch(vector[None, :])[0]


def workload() -> list[Query]:
    rng = np.random.default_rng(SEED)
    ranks = np.minimum(rng.zipf(1.3, size=N_QUERIES), POPULATION)
    return [
        Query(f"stress fact number {rank} of the universe", fact_id=f"F{rank}")
        for rank in ranks
    ]


def run_engine(arena: str | None):
    engine = build_asteria_engine(build_remote(seed=SEED), seed=SEED, arena=arena)
    outcomes = []
    for i, query in enumerate(workload()):
        response = engine.handle(query, now=i * TIME_STEP)
        outcomes.append((response.lookup.status, response.result))
    return engine, outcomes


def test_float32_arena_replays_baseline_decisions_exactly():
    baseline_engine, baseline = run_engine(arena=None)
    arena_engine, arena_backed = run_engine(arena="float32")
    assert arena_backed == baseline
    # Latency reservoirs don't define equality; every integer counter must.
    baseline_counters = {
        name: value
        for name, value in dataclasses.asdict(baseline_engine.metrics).items()
        if isinstance(value, int)
    }
    arena_counters = {
        name: value
        for name, value in dataclasses.asdict(arena_engine.metrics).items()
        if isinstance(value, int)
    }
    assert baseline_counters and arena_counters == baseline_counters
    # The fast path was actually on: live elements carry arena slots.
    slots = [
        element.arena_slot for element in arena_engine.cache.elements.values()
    ]
    assert slots and all(slot is not None for slot in slots)
    assert baseline_engine.cache.arena is None


def _indexes(kind: str, arena: EmbeddingArena | None):
    if kind == "flat":
        return FlatIndex(DIM, arena=arena)
    raise AssertionError(kind)


@pytest.mark.parametrize("kind", ["flat"])
def test_add_slot_matches_add(kind):
    """Cache-owned arena rows search identically to index-owned storage."""
    rng = np.random.default_rng(11)
    vectors = rng.normal(size=(40, DIM)).astype(np.float32)
    owned = _indexes(kind, arena=None)
    arena = EmbeddingArena(DIM)
    shared = _indexes(kind, arena=arena)
    slot_of = {}
    for key, vector in enumerate(vectors):
        owned.add(key, vector)
        slot_of[key] = arena.allocate(vector)
        shared.add_slot(key, slot_of[key])
    queries = [normalize(rng.normal(size=DIM).astype(np.float32)) for _ in range(10)]
    for query in queries:
        assert [hit.key for hit in owned.search(query, k=5)] == [
            hit.key for hit in shared.search(query, k=5)
        ]
    # Incremental removal keeps both in lockstep too; the caller releases its
    # own arena rows, mirroring AsteriaCache.remove (index first, arena second).
    for key in range(0, 40, 3):
        owned.remove(key)
        shared.remove(key)
        arena.release(slot_of.pop(key))
    for query in queries:
        assert [hit.key for hit in owned.search(query, k=5)] == [
            hit.key for hit in shared.search(query, k=5)
        ]
