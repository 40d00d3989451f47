"""Batch paths must be indistinguishable from N scalar calls.

The batched fast path (``embed_batch`` → ``search_batch`` → ``lookup_batch``
→ ``handle_batch``) exists purely for throughput; these tests pin the
contract that it changes *nothing* observable: same embeddings, same hits,
same matches and verdicts, same metrics deltas. Heap-based eviction is
likewise pinned to the eviction order of the old full-scan implementation,
and heap-based expiry to the purge order of the old full-scan sweep.
"""

from __future__ import annotations

import copy
import functools
import math
import random

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.ann import FlatIndex
from repro.core import AsteriaCache, AsteriaConfig, Query, Sine
from repro.core.arena import EmbeddingArena
from repro.core.eviction import LCFUPolicy, LFUPolicy, LRUPolicy
from repro.core.persistence import element_record
from repro.core.types import FetchResult
from repro.embedding import CachedEmbedder, HashingEmbedder
from repro.factory import build_asteria_engine, build_remote
from repro.judger import SimulatedJudger
from repro.store.backend import WrappingBackend


def _unit_vectors(n: int, dim: int = 64, seed: int = 0) -> np.ndarray:
    rng = np.random.default_rng(seed)
    vectors = rng.standard_normal((n, dim)).astype(np.float32)
    return vectors / np.linalg.norm(vectors, axis=1, keepdims=True)


TEXTS = [
    "height of mount everest",
    "what is the height of mount everest",
    "population of iceland today",
    "",
    "gdp of france in 2024",
    "height of mount everest",  # duplicate on purpose
    "the the the",  # stopwords only
    "boiling point of water at sea level",
]


# -- embedding ---------------------------------------------------------------


def test_embed_batch_matches_scalar():
    batch_embedder = HashingEmbedder(seed=3)
    scalar_embedder = HashingEmbedder(seed=3)
    batch = batch_embedder.embed_batch(TEXTS)
    singles = np.stack([scalar_embedder.embed(text) for text in TEXTS])
    assert batch.dtype == np.float32
    assert batch.shape == (len(TEXTS), batch_embedder.dim)
    # Rows agree to float32 summation order (the batch GEMM may associate
    # additions differently than the one-row kernel); unit norm is exact.
    assert np.allclose(batch, singles, atol=1e-6)
    norms = np.linalg.norm(batch, axis=1)
    assert np.allclose(norms[norms > 0], 1.0, atol=1e-6)


def test_embed_batch_edge_cases():
    embedder = HashingEmbedder(seed=3)
    empty = embedder.embed_batch([])
    assert empty.shape == (0, embedder.dim)
    single = embedder.embed_batch(["one lonely text"])
    assert np.array_equal(single[0], embedder.embed("one lonely text"))


def test_cached_embed_batch_matches_scalar_replay():
    inner_a = HashingEmbedder(seed=3)
    inner_b = HashingEmbedder(seed=3)
    batched = CachedEmbedder(inner_a)
    scalar = CachedEmbedder(inner_b)
    # Pre-populate one entry so the batch mixes hits and misses.
    batched.embed(TEXTS[0])
    scalar.embed(TEXTS[0])

    batch = batched.embed_batch(TEXTS)
    singles = np.stack([scalar.embed(text) for text in TEXTS])

    assert np.allclose(batch, singles, atol=1e-6)
    assert batched.hits == scalar.hits
    assert batched.misses == scalar.misses
    assert list(batched._cache) == list(scalar._cache)  # LRU order too


def test_cached_embed_batch_respects_lru_capacity():
    batched = CachedEmbedder(HashingEmbedder(seed=3), max_entries=3)
    scalar = CachedEmbedder(HashingEmbedder(seed=3), max_entries=3)
    texts = [f"text number {i}" for i in range(6)]
    batch = batched.embed_batch(texts)
    singles = np.stack([scalar.embed(text) for text in texts])
    assert np.allclose(batch, singles, atol=1e-6)
    assert list(batched._cache) == list(scalar._cache)
    assert (batched.hits, batched.misses) == (scalar.hits, scalar.misses)


# -- ANN search --------------------------------------------------------------


@pytest.mark.parametrize(
    "make_index",
    [lambda: FlatIndex(64)],
    ids=["flat"],
)
def test_search_batch_equals_scalar_searches(make_index):
    index = make_index()
    vectors = _unit_vectors(300, seed=11)
    for key, vector in enumerate(vectors):
        index.add(key, vector)
    queries = _unit_vectors(17, seed=12)

    batch = index.search_batch(queries, 5)
    assert len(batch) == len(queries)
    for query, batch_hits in zip(queries, batch):
        scalar_hits = index.search(query, 5)
        assert [hit.key for hit in batch_hits] == [hit.key for hit in scalar_hits]
        assert np.allclose(
            [hit.score for hit in batch_hits],
            [hit.score for hit in scalar_hits],
            atol=1e-6,
        )


def test_search_batch_edge_cases():
    index = FlatIndex(64)
    queries = _unit_vectors(4, seed=1)
    # Empty batch and empty index both yield empty per-query lists.
    assert index.search_batch(np.zeros((0, 64), dtype=np.float32), 3) == []
    assert index.search_batch(queries, 3) == [[], [], [], []]
    index.add(9, queries[0])
    single = index.search_batch(queries[:1], 3)
    assert len(single) == 1 and single[0][0].key == 9
    with pytest.raises(ValueError):
        index.search_batch(queries[0], 3)  # 1-D input is a bug, not a batch
    with pytest.raises(ValueError):
        index.search_batch(queries, 0)


def test_flat_search_sliced_to_high_water_mark():
    """The scalar path must score live rows only, not reserved capacity."""
    index = FlatIndex(8, initial_capacity=1024)
    assert index._arena._high_water == 0
    vectors = _unit_vectors(6, dim=8, seed=2)
    for key, vector in enumerate(vectors):
        index.add(key, vector)
    assert index._arena._high_water == 6
    index.remove(5)
    index.remove(4)
    assert index._arena._high_water == 4  # mark sinks past trailing free slots
    index.remove(0)
    assert index._arena._high_water == 4  # interior hole does not lower it
    hits = index.search(vectors[1], 10)
    assert sorted(hit.key for hit in hits) == [1, 2, 3]
    index.add(40, vectors[4])  # reuses the lowest free slot
    assert index._arena._high_water == 4


# -- sine / cache / engine ---------------------------------------------------


def _fleet_queries(n: int) -> list[Query]:
    return [
        Query(f"ok the height of mountain number {i % (n // 2)} please", fact_id=f"F{i % (n // 2)}")
        for i in range(n)
    ]


def _warm_engine(seed: int = 7, config: AsteriaConfig | None = None):
    engine = build_asteria_engine(build_remote(), config, seed=seed)
    for i in range(8):
        engine.handle(
            Query(f"height of mountain number {i}", fact_id=f"F{i}"), 0.0
        )
    return engine


def test_sine_lookup_batch_equals_scalar_retrieve():
    engine = _warm_engine()
    cache = engine.cache
    sine = cache.sine
    queries = _fleet_queries(10)
    batch = sine.lookup_batch(queries, cache.elements)
    for query, batch_result in zip(queries, batch):
        scalar_result = sine.retrieve(query, cache.elements)
        match_id = batch_result.match.element_id if batch_result.match else None
        scalar_id = scalar_result.match.element_id if scalar_result.match else None
        assert match_id == scalar_id
        assert [hit.key for hit in batch_result.candidates] == [
            hit.key for hit in scalar_result.candidates
        ]
        assert [verdict.score for verdict in batch_result.verdicts] == [
            verdict.score for verdict in scalar_result.verdicts
        ]
        assert batch_result.ann_considered == scalar_result.ann_considered
    assert sine.lookup_batch([], cache.elements) == []


def test_cache_lookup_batch_equals_scalar_lookups():
    engine_a = _warm_engine()
    engine_b = _warm_engine()
    queries = _fleet_queries(10)

    batch = engine_a.cache.lookup_batch(queries, now=5.0)
    singles = [engine_b.cache.lookup(query, now=5.0) for query in queries]

    for batch_result, scalar_result in zip(batch, singles):
        batch_id = batch_result.match.element_id if batch_result.match else None
        scalar_id = scalar_result.match.element_id if scalar_result.match else None
        assert batch_id == scalar_id
    # Hit bookkeeping (frequency, recency) replayed identically.
    freq_a = {e.key: e.frequency for e in engine_a.cache.elements.values()}
    freq_b = {e.key: e.frequency for e in engine_b.cache.elements.values()}
    assert freq_a == freq_b


def _snapshot_metrics(engine):
    metrics = engine.metrics
    return {
        "requests": metrics.requests,
        "hits": metrics.hits,
        "misses": metrics.misses,
        "bypasses": metrics.bypasses,
        "served_correct": metrics.served_correct,
        "served_incorrect": metrics.served_incorrect,
        "evictions": metrics.evictions,
        "expirations": metrics.expirations,
        "prefetch_hits": metrics.prefetch_hits,
        "total_latency_sum": metrics.total_latency.total,
        "hit_latency_sum": metrics.hit_latency.total,
        "miss_latency_sum": metrics.miss_latency.total,
        "check_latency_sum": metrics.cache_check_latency.total,
    }


def _responses_equal(batch_responses, scalar_responses):
    assert len(batch_responses) == len(scalar_responses)
    for batch_response, scalar_response in zip(batch_responses, scalar_responses):
        assert batch_response.result == scalar_response.result
        assert batch_response.latency == scalar_response.latency
        assert batch_response.lookup.status == scalar_response.lookup.status
        assert batch_response.lookup.judged == scalar_response.lookup.judged
        assert (
            batch_response.lookup.candidates == scalar_response.lookup.candidates
        )
        assert (
            batch_response.lookup.element_id == scalar_response.lookup.element_id
        )


@pytest.mark.parametrize("config", [None, AsteriaConfig(ann_only=True)], ids=["full", "ann_only"])
def test_handle_batch_equals_scalar_handles_hits(config):
    engine_a = _warm_engine(config=copy.deepcopy(config))
    engine_b = _warm_engine(config=copy.deepcopy(config))
    queries = _fleet_queries(12)

    batch_responses = engine_a.handle_batch(queries, now=5.0)
    scalar_responses = [engine_b.handle(query, now=5.0) for query in queries]

    _responses_equal(batch_responses, scalar_responses)
    assert _snapshot_metrics(engine_a) == _snapshot_metrics(engine_b)


def test_handle_batch_with_mid_batch_misses_and_inserts():
    """Misses admit new elements mid-batch; later duplicates must hit the
    fresh entry exactly as the scalar sequence would."""
    engine_a = _warm_engine(seed=9)
    engine_b = _warm_engine(seed=9)
    queries = []
    for i in range(4):
        queries.append(Query(f"brand new topic number {i} kangaroo", fact_id=f"N{i}"))
        queries.append(Query(f"brand new topic number {i} kangaroo", fact_id=f"N{i}"))

    batch_responses = engine_a.handle_batch(queries, now=10.0)
    scalar_responses = [engine_b.handle(query, now=10.0) for query in queries]

    _responses_equal(batch_responses, scalar_responses)
    assert _snapshot_metrics(engine_a) == _snapshot_metrics(engine_b)
    assert engine_a.cache.stats.inserts == engine_b.cache.stats.inserts


def test_handle_batch_with_capacity_evictions():
    config = AsteriaConfig(capacity_items=6)
    engine_a = _warm_engine(seed=4, config=copy.deepcopy(config))
    engine_b = _warm_engine(seed=4, config=copy.deepcopy(config))
    queries = [
        Query(f"unseen churny topic number {i} wombat", fact_id=f"C{i}")
        for i in range(10)
    ]
    batch_responses = engine_a.handle_batch(queries, now=20.0)
    scalar_responses = [engine_b.handle(query, now=20.0) for query in queries]
    _responses_equal(batch_responses, scalar_responses)
    assert _snapshot_metrics(engine_a) == _snapshot_metrics(engine_b)
    assert sorted(e.key for e in engine_a.cache.elements.values()) == sorted(
        e.key for e in engine_b.cache.elements.values()
    )


def test_handle_batch_edge_cases_and_bypass():
    config = AsteriaConfig(cacheable_tools=("search",))
    engine_a = _warm_engine(config=copy.deepcopy(config))
    engine_b = _warm_engine(config=copy.deepcopy(config))
    assert engine_a.handle_batch([], now=3.0) == []
    queries = [
        Query("ok the height of mountain number 1 please", fact_id="F1"),
        Query("read the deployment config file", tool="file", fact_id="X1"),
    ]
    batch_responses = engine_a.handle_batch(queries, now=3.0)
    scalar_responses = [engine_b.handle(query, now=3.0) for query in queries]
    assert batch_responses[1].lookup.status == "bypass"
    _responses_equal(batch_responses, scalar_responses)
    assert _snapshot_metrics(engine_a) == _snapshot_metrics(engine_b)
    single = engine_a.handle_batch(
        [Query("ok the height of mountain number 2 please", fact_id="F2")], now=4.0
    )
    scalar = engine_b.handle(
        Query("ok the height of mountain number 2 please", fact_id="F2"), now=4.0
    )
    _responses_equal(single, [scalar])


# -- heap eviction order -----------------------------------------------------


def _scan_eviction_order(cache, now):
    """The old full-scan order: ascending (score, element_id)."""
    return [
        element_id
        for _, element_id in sorted(
            (cache.policy.score(element, now), element_id)
            for element_id, element in cache.elements.items()
        )
    ]


@pytest.mark.parametrize(
    "policy", [LCFUPolicy(), LRUPolicy(), LFUPolicy()], ids=["lcfu", "lru", "lfu"]
)
def test_heap_eviction_matches_scan_order(policy):
    engine = build_asteria_engine(build_remote(), seed=13)
    cache = engine.cache
    cache.policy = policy
    # Build a population with varied frequency/recency/cost profiles.
    for i in range(12):
        engine.handle(Query(f"seed topic number {i} platypus", fact_id=f"S{i}"), float(i))
    for i in range(6):
        for _ in range(i % 4):
            engine.handle(
                Query(f"ok seed topic number {i} platypus", fact_id=f"S{i}"),
                30.0 + i,
            )
    now = 50.0
    expected = _scan_eviction_order(cache, now)

    cache.capacity_items = 4
    victims = []
    original_remove = cache.remove

    def tracking_remove(element_id, reason="delete"):
        victims.append(element_id)
        return original_remove(element_id, reason=reason)

    cache.remove = tracking_remove
    cache._enforce_capacity(now)
    cache.remove = original_remove

    survivors = len(cache.elements)
    assert survivors == 4
    assert victims == expected[: len(victims)]


def test_heap_eviction_survives_policy_swap_and_restore():
    """Out-of-band score changes (policy swap) must not corrupt order."""
    engine = build_asteria_engine(build_remote(), AsteriaConfig(capacity_items=50), seed=13)
    cache = engine.cache
    for i in range(12):
        engine.handle(Query(f"seed topic number {i} walrus", fact_id=f"W{i}"), float(i))
    cache.policy = LRUPolicy()  # heap entries now hold stale LCFU scores
    now = 40.0
    expected = _scan_eviction_order(cache, now)
    cache.capacity_items = 3
    victims = []
    original_remove = cache.remove

    def tracking_remove(element_id, reason="delete"):
        victims.append(element_id)
        return original_remove(element_id, reason=reason)

    cache.remove = tracking_remove
    cache._enforce_capacity(now)
    cache.remove = original_remove
    assert victims == expected[: len(victims)]
    assert len(cache.elements) == 3

def test_heaps_stay_bounded_when_the_cache_never_fills():
    """A hit pushes a fresh eviction-heap entry; with capacity above the
    working set nothing ever evicted, so nothing ever compacted them."""
    rng = np.random.default_rng(5)
    weights = 1.0 / np.arange(1, 201) ** 0.99
    ranks = rng.choice(200, size=20_000, p=weights / weights.sum())
    engine = build_asteria_engine(
        build_remote(), AsteriaConfig(capacity_items=1000), seed=13
    )
    cache = engine.cache
    for index, rank in enumerate(ranks):
        engine.handle(
            Query(f"seed topic number {rank} platypus", fact_id=f"S{rank}"),
            index * 0.01,
        )
    assert engine.metrics.hits > 15_000 and cache.stats.evictions == 0
    bound = 2 * len(cache) + 64
    assert len(cache._heap) <= bound
    assert len(cache._expiry) <= bound


# -- heap expiry order -------------------------------------------------------


class _DeleteLog(WrappingBackend):
    """Sees every ``delete(element_id, reason)`` the cache issues."""

    def __init__(self, inner, log):
        super().__init__(inner)
        self.log = log

    def delete(self, element_id, reason="delete"):
        self.log.append((element_id, reason))
        return self.inner.delete(element_id, reason=reason)


def _scan_remove_expired(cache, now):
    """The full-scan sweep ``remove_expired`` was before the expiry heap."""
    expired = [
        element_id
        for element_id, element in cache.elements.items()
        if element.is_expired(now)
    ]
    for element_id in expired:
        cache.remove(element_id, reason="expire")
    cache.stats.expirations += len(expired)
    return len(expired)


def _logged_cache(scan, **kwargs):
    embedder = HashingEmbedder(seed=7)
    arena = EmbeddingArena(embedder.dim, initial_capacity=4)
    sine = Sine(
        embedder, FlatIndex(embedder.dim, arena=arena), SimulatedJudger(seed=3)
    )
    cache = AsteriaCache(sine, arena=arena, **kwargs)
    log = []
    cache.wrap_backend(lambda inner: _DeleteLog(inner, log))
    if scan:
        cache.remove_expired = functools.partial(_scan_remove_expired, cache)
    return cache, log


def _fetch():
    return FetchResult(
        result="answer", latency=0.4, service_latency=0.4, cost=0.005,
        size_tokens=16,
    )


def _lookup_outcome(result):
    return (
        result.match.element_id if result.match is not None else None,
        [(hit.key, hit.score) for hit in result.candidates],
        result.judged,
    )


_EXPIRY_OPS = (
    ["insert"] * 6 + ["lookup"] * 6 + ["remove", "invalidate", "readmit",
                                       "compact", "mutate", "sweep"]
)


def _run_expiry_script(seed, steps, **kwargs):
    """Drive a heap cache and a scan cache through one seeded script and
    compare them after every step. Returns the shared delete log."""
    heap_cache, heap_log = _logged_cache(False, **kwargs)
    scan_cache, scan_log = _logged_cache(True, **kwargs)
    twins = (heap_cache, scan_cache)
    rng = random.Random(seed)
    now, topic, parked = 0.0, 0, []
    for _ in range(steps):
        # Mostly small steps, now and then a jump over many deadlines.
        now += rng.choice([0.0, 0.0, 0.25, 0.25, 0.25, 1.0, 1.0, 4.0, 15.0, 80.0])
        op = rng.choice(_EXPIRY_OPS)
        resident = list(heap_cache.elements)
        if op == "insert" or not resident:
            topic += 1
            query = Query(
                f"expiry topic number {topic} {rng.choice(['emu', 'yak', 'eel'])}",
                fact_id=f"T{topic}",
                staticity=rng.randint(1, 10),
            )
            ttl = rng.choice([None, None, 0.5, 3.0, 20.0, 90.0])
            for cache in twins:
                cache.insert(query, _fetch(), now, ttl=ttl)
        elif op == "lookup":
            element = heap_cache.elements[rng.choice(resident)]
            text = rng.choice([f"ok {element.key} please", "no such thing anywhere"])
            query = Query(text, fact_id=element.truth_key)
            outcomes = [_lookup_outcome(cache.lookup(query, now)) for cache in twins]
            assert outcomes[0] == outcomes[1]
        elif op == "remove":
            victim = rng.choice(resident)
            parked.append(element_record(heap_cache.elements[victim]))
            for cache in twins:
                cache.remove(victim)
        elif op == "invalidate":
            digit = str(rng.randint(0, 9))
            counts = [
                cache.invalidate(lambda element: element.key.endswith(digit + " emu"))
                for cache in twins
            ]
            assert counts[0] == counts[1]
        elif op == "readmit" and parked:
            # A historical id lands at the *end* of the resident map, out of
            # id order; shift moves its deadline with it.
            record = parked.pop(rng.randrange(len(parked)))
            shift = rng.choice([0.0, 5.0, 40.0])
            admitted = [
                cache.admit_restored(dict(record), shift=shift, now=now)
                for cache in twins
            ]
            assert (admitted[0] is None) == (admitted[1] is None)
        elif op == "compact":
            remaps = [cache.compact_arena() for cache in twins]
            assert remaps[0] == remaps[1]
        elif op == "mutate":
            # Direct mutation, sooner or later (or never), then the
            # documented resync.
            victim = rng.choice(resident)
            expires_at = rng.choice([now + 0.1, now + 60.0, math.inf])
            for cache in twins:
                cache.elements[victim].expires_at = expires_at
                cache._rebuild_heap(now)
        elif op == "sweep":
            removed = [cache.remove_expired(now) for cache in twins]
            assert removed[0] == removed[1]
        assert heap_log == scan_log
        assert list(heap_cache.elements) == list(scan_cache.elements)
        assert heap_cache.stats == scan_cache.stats
        assert len(heap_cache._expiry) <= 2 * len(heap_cache) + 64
    return heap_log


@pytest.mark.parametrize(
    "kwargs",
    [
        dict(default_ttl=30.0, capacity_items=6),
        dict(default_ttl=30.0, capacity_items=6, staticity_ttl_scaling=True),
        dict(default_ttl=None, capacity_items=None),
        dict(default_ttl=8.0, capacity_items=None, staticity_ttl_scaling=True),
    ],
    ids=["default", "staticity-scaled", "immortal-default", "unbounded"],
)
def test_heap_expiry_matches_scan_order(kwargs):
    reasons_seen = set()
    batches = []
    for seed in range(4):
        log = _run_expiry_script(seed, 400, **kwargs)
        reasons_seen.update(reason for _, reason in log)
        run = 0
        for _, reason in log:
            run = run + 1 if reason == "expire" else 0
            batches.append(run)
    # The script really exercised what it claims to: every delete reason,
    # and sweeps that purged one element and sweeps that purged several.
    expected = {"delete", "expire", "invalidate"}
    if kwargs["capacity_items"] is not None:
        expected.add("evict")
    assert expected <= reasons_seen
    assert 1 in batches and max(batches) >= 3


def test_expiry_refiles_a_deadline_moved_without_resync():
    """An entry whose element now expires later is re-filed, not purged;
    one whose element became immortal is dropped."""
    cache, log = _logged_cache(False, default_ttl=10.0)
    later = cache.insert(Query("first expiry topic emu", fact_id="A"), _fetch(), 0.0)
    never = cache.insert(Query("second expiry topic yak", fact_id="B"), _fetch(), 0.0)
    on_time = cache.insert(Query("third expiry topic eel", fact_id="C"), _fetch(), 0.0)
    later.expires_at = 25.0
    never.expires_at = math.inf
    assert cache.remove_expired(12.0) == 1
    assert log == [(on_time.element_id, "expire")]
    assert cache.remove_expired(24.0) == 0
    assert cache.remove_expired(25.0) == 1
    assert cache.remove_expired(1e9) == 0
    assert list(cache.elements) == [never.element_id]


@settings(max_examples=40, deadline=None)
@given(
    script=st.lists(
        st.tuples(
            st.sampled_from(["insert", "lookup", "lookup"]),
            st.sampled_from([0.0, 0.5, 2.0, 9.0, 40.0]),  # time step
            st.sampled_from([None, 0.5, 2.0, 30.0]),  # ttl
            st.integers(min_value=0, max_value=5),  # topic
        ),
        max_size=40,
    ),
    capacity=st.sampled_from([None, 3]),
)
def test_lookup_never_serves_an_expired_element(script, capacity):
    """The ``lookup`` docstring's guarantee, as a property."""
    cache, _ = _logged_cache(False, default_ttl=5.0, capacity_items=capacity)
    now = 0.0
    for op, step, ttl, topic in script:
        now += step
        query = Query(f"property topic number {topic} emu", fact_id=f"P{topic}")
        if op == "insert":
            cache.insert(query, _fetch(), now, ttl=ttl)
            continue
        result = cache.lookup(query, now)
        assert all(element.expires_at > now for element in cache.elements.values())
        assert result.match is None or result.match.expires_at > now


# -- __slots__ ---------------------------------------------------------------


def test_hot_dataclasses_are_slotted():
    from repro.ann.base import SearchHit
    from repro.core.engine import EngineResponse
    from repro.core.sine import SineResult
    from repro.core.types import CacheLookup, FetchResult
    from repro.judger.base import JudgeRequest, JudgeVerdict

    hit = SearchHit(score=0.5, key=1)
    verdict = JudgeVerdict(score=0.5)
    request = JudgeRequest(query_text="a", cached_query="b")
    fetch = FetchResult(result="r", latency=0.1, service_latency=0.1, cost=0.0)
    lookup = CacheLookup(status="miss", result=None, latency=0.0)
    response = EngineResponse(result="r", latency=0.1, lookup=lookup)
    result = SineResult(match=None)
    query = Query("q")
    for instance in (hit, verdict, request, fetch, lookup, response, result, query):
        assert not hasattr(instance, "__dict__"), type(instance).__name__
