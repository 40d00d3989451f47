"""Property-based tests (hypothesis) on core data structures and invariants."""

import math

import numpy as np
import pytest
from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st

from repro.ann import FlatIndex
from repro.core import (
    EvalRecord,
    LCFUPolicy,
    SemanticElement,
    find_threshold,
    precision_curve,
)
from repro.embedding import HashingEmbedder
from repro.network import TokenBucket
from repro.serving import KVMemoryPool
from repro.sim.distributions import LogNormal
from repro.workloads import ZipfSampler

# Hypothesis generates many examples; keep fixtures cheap.
COMMON_SETTINGS = settings(
    max_examples=50, suppress_health_check=[HealthCheck.too_slow], deadline=None
)


# -- embedder -----------------------------------------------------------------
@COMMON_SETTINGS
@given(st.text(alphabet=st.characters(codec="ascii"), min_size=0, max_size=80))
def test_embedding_always_unit_or_zero(text):
    embedder = HashingEmbedder(seed=1, dim=32)
    norm = float(np.linalg.norm(embedder.embed(text)))
    assert norm == pytest.approx(0.0, abs=1e-6) or norm == pytest.approx(
        1.0, abs=1e-4
    )


@COMMON_SETTINGS
@given(st.lists(st.sampled_from("abcdefg"), min_size=1, max_size=10))
def test_embedding_invariant_to_duplicate_spacing(tokens):
    embedder = HashingEmbedder(seed=1, dim=32)
    text = " ".join(tokens)
    spaced = "   ".join(tokens)
    assert np.allclose(embedder.embed(text), embedder.embed(spaced))


# -- flat index ----------------------------------------------------------------
@COMMON_SETTINGS
@given(st.data())
def test_flat_index_top1_matches_brute_force(data):
    rng = np.random.default_rng(data.draw(st.integers(0, 2**31)))
    count = data.draw(st.integers(min_value=1, max_value=40))
    vectors = rng.standard_normal((count, 8)).astype(np.float32)
    vectors /= np.maximum(np.linalg.norm(vectors, axis=1, keepdims=True), 1e-9)
    index = FlatIndex(8)
    for key, vector in enumerate(vectors):
        index.add(key, vector)
    query = rng.standard_normal(8).astype(np.float32)
    query /= np.linalg.norm(query)
    expected = int(np.argmax(vectors @ query))
    got = index.search(query, k=1)[0].key
    assert float(np.dot(vectors[got], query)) == pytest.approx(
        float(np.dot(vectors[expected], query)), abs=1e-5
    )


@COMMON_SETTINGS
@given(st.lists(st.integers(0, 1000), min_size=1, max_size=60, unique=True))
def test_flat_index_add_remove_leaves_no_residue(keys):
    rng = np.random.default_rng(0)
    index = FlatIndex(8)
    for key in keys:
        index.add(key, rng.standard_normal(8))
    for key in keys:
        index.remove(key)
    assert len(index) == 0
    assert index.search(rng.standard_normal(8), k=5) == []


# -- LCFU ---------------------------------------------------------------------
def _element(frequency, cost, latency, staticity, size):
    return SemanticElement(
        element_id=1,
        key="k",
        value="v",
        staticity=staticity,
        frequency=frequency,
        retrieval_latency=latency,
        retrieval_cost=cost,
        size_tokens=size,
        expires_at=float("inf"),
    )


@COMMON_SETTINGS
@given(
    frequency=st.integers(0, 1000),
    cost=st.floats(0.0, 10.0, allow_nan=False),
    latency=st.floats(0.0, 100.0, allow_nan=False),
    staticity=st.integers(1, 10),
    size=st.integers(1, 10_000),
)
def test_lcfu_score_finite_and_nonnegative(frequency, cost, latency, staticity, size):
    score = LCFUPolicy().score(
        _element(frequency, cost, latency, staticity, size), now=0.0
    )
    assert math.isfinite(score)
    assert score >= 0.0


@COMMON_SETTINGS
@given(
    cost=st.floats(0.001, 1.0, allow_nan=False),
    latency=st.floats(0.01, 10.0, allow_nan=False),
    staticity=st.integers(1, 10),
    size=st.integers(1, 1000),
    freq_low=st.integers(1, 100),
    bump=st.integers(1, 100),
)
def test_lcfu_monotone_in_frequency(cost, latency, staticity, size, freq_low, bump):
    policy = LCFUPolicy()
    low = policy.score(_element(freq_low, cost, latency, staticity, size), 0.0)
    high = policy.score(_element(freq_low + bump, cost, latency, staticity, size), 0.0)
    assert high >= low


# -- token bucket ------------------------------------------------------------------
@COMMON_SETTINGS
@given(
    rate=st.floats(0.1, 100.0, allow_nan=False),
    burst=st.integers(1, 50),
    gaps=st.lists(st.floats(0.0, 10.0, allow_nan=False), min_size=1, max_size=200),
)
def test_token_bucket_never_exceeds_rate_plus_burst(rate, burst, gaps):
    bucket = TokenBucket(rate=rate, burst=burst)
    now = 0.0
    granted = 0
    for gap in gaps:
        now += gap
        if bucket.try_acquire(now):
            granted += 1
    # Conservation: grants <= initial burst + refill over elapsed time.
    assert granted <= burst + rate * now + 1e-6


@COMMON_SETTINGS
@given(
    rate=st.floats(0.1, 10.0, allow_nan=False),
    burst=st.integers(1, 5),
    when=st.floats(0.0, 100.0, allow_nan=False),
)
def test_token_bucket_next_available_is_truthful(rate, burst, when):
    bucket = TokenBucket(rate=rate, burst=burst)
    bucket.try_acquire(when)
    available_at = bucket.next_available(when)
    assert available_at >= when
    assert bucket.try_acquire(available_at + 1e-9)


# -- precision curve -------------------------------------------------------------------
@COMMON_SETTINGS
@given(
    st.lists(
        st.tuples(st.floats(0.0, 1.0, allow_nan=False), st.booleans()),
        min_size=1,
        max_size=100,
    )
)
def test_precision_curve_bounds_and_threshold_soundness(pairs):
    records = [EvalRecord(score=score, correct=correct) for score, correct in pairs]
    curve = precision_curve(records)
    assert curve, "non-empty input must give a non-empty curve"
    for threshold, precision in curve:
        assert 0.0 <= precision <= 1.0
        accepted = [record for record in records if record.score >= threshold]
        expected = sum(record.correct for record in accepted) / len(accepted)
        assert precision == pytest.approx(expected)
    # find_threshold must return either a satisfying threshold or the fallback.
    chosen = find_threshold(curve, target_precision=0.9, fallback=2.0)
    if chosen != 2.0:
        accepted = [record for record in records if record.score >= chosen]
        assert sum(r.correct for r in accepted) / len(accepted) >= 0.9


# -- zipf ------------------------------------------------------------------------------
@COMMON_SETTINGS
@given(n=st.integers(1, 500), s=st.floats(0.0, 3.0, allow_nan=False))
def test_zipf_probabilities_valid(n, s):
    sampler = ZipfSampler(n=n, s=s)
    probabilities = [sampler.probability(rank) for rank in range(n)]
    assert sum(probabilities) == pytest.approx(1.0)
    assert all(
        probabilities[i] >= probabilities[i + 1] - 1e-12 for i in range(n - 1)
    )


# -- memory pool -----------------------------------------------------------------------
@COMMON_SETTINGS
@given(
    st.lists(
        st.tuples(
            st.sampled_from(["agent", "judger"]),
            st.booleans(),
            st.floats(0.1, 20.0, allow_nan=False),
        ),
        max_size=100,
    )
)
def test_memory_pool_conservation(operations):
    pool = KVMemoryPool(64.0, {"agent": 40.0, "judger": 8.0})
    held = {"agent": 0.0, "judger": 0.0}
    for workload, is_alloc, amount in operations:
        if is_alloc:
            if pool.allocate(workload, amount):
                held[workload] += amount
        else:
            release = min(amount, held[workload])
            if release > 0:
                pool.release(workload, release)
                held[workload] -= release
    for workload, amount in held.items():
        assert pool.used_by(workload) == pytest.approx(amount, abs=1e-6)
    assert pool.dynamic_free >= -1e-9


# -- distributions -----------------------------------------------------------------------
@COMMON_SETTINGS
@given(
    mean=st.floats(0.01, 10.0, allow_nan=False),
    cv=st.floats(0.0, 2.0, allow_nan=False),
)
def test_lognormal_mean_cv_roundtrip(mean, cv):
    dist = LogNormal.from_mean_cv(mean=mean, cv=cv)
    assert dist.mean() == pytest.approx(mean, rel=1e-6)
