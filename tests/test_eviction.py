"""Tests for eviction policies, LCFU in particular (Algorithm 2)."""

import pytest

from repro.core import (
    FIFOPolicy,
    LCFUPolicy,
    LFUPolicy,
    LRUPolicy,
    SemanticElement,
    SizeAwareLFUPolicy,
    policy_by_name,
)


def element(**overrides) -> SemanticElement:
    defaults = dict(
        element_id=1,
        key="k",
        value="v",
        staticity=6,
        frequency=3,
        retrieval_latency=0.4,
        retrieval_cost=0.005,
        size_tokens=64,
        created_at=0.0,
        last_accessed_at=50.0,
        expires_at=1000.0,
    )
    defaults.update(overrides)
    return SemanticElement(**defaults)


class TestLCFU:
    def test_expired_scores_zero(self):
        policy = LCFUPolicy()
        assert policy.score(element(expires_at=10.0), now=20.0) == 0.0

    def test_zero_size_scores_zero(self):
        policy = LCFUPolicy()
        assert policy.score(element(size_tokens=0), now=0.0) == 0.0

    def test_zero_frequency_scores_zero(self):
        # log(0 + 1) = 0: speculative/new entries are prime victims (§4.3).
        policy = LCFUPolicy()
        assert policy.score(element(frequency=0), now=0.0) == 0.0

    def test_matches_algorithm_2_formula(self):
        import math

        item = element(
            frequency=5, retrieval_cost=0.02, retrieval_latency=0.8,
            staticity=9, size_tokens=100,
        )
        expected = (
            math.log(6) * math.log(0.02 * 1e3 + 1) * math.log(1.8) * math.log(10)
        ) / 100
        assert LCFUPolicy().score(item, now=0.0) == pytest.approx(expected)

    def test_monotone_in_frequency(self):
        policy = LCFUPolicy()
        low = policy.score(element(frequency=1), now=0.0)
        high = policy.score(element(frequency=10), now=0.0)
        assert high > low

    def test_monotone_in_cost(self):
        policy = LCFUPolicy()
        cheap = policy.score(element(retrieval_cost=0.001), now=0.0)
        pricey = policy.score(element(retrieval_cost=0.05), now=0.0)
        assert pricey > cheap

    def test_monotone_in_staticity(self):
        policy = LCFUPolicy()
        ephemeral = policy.score(element(staticity=2), now=0.0)
        stable = policy.score(element(staticity=10), now=0.0)
        assert stable > ephemeral

    def test_larger_items_score_lower(self):
        policy = LCFUPolicy()
        small = policy.score(element(size_tokens=10), now=0.0)
        large = policy.score(element(size_tokens=1000), now=0.0)
        assert small > large

    def test_sub_dollar_cost_contributes_positively(self):
        # The *1e3 shift exists exactly because log(cost) < 0 for cost < $1.
        policy = LCFUPolicy()
        assert policy.score(element(retrieval_cost=0.005, frequency=1), now=0.0) > 0


class TestClassicPolicies:
    def test_lru_orders_by_recency(self):
        policy = LRUPolicy()
        older = element(last_accessed_at=10.0)
        newer = element(last_accessed_at=20.0)
        assert policy.score(older, 0.0) < policy.score(newer, 0.0)

    def test_lfu_orders_by_frequency(self):
        policy = LFUPolicy()
        rare = element(frequency=1)
        popular = element(frequency=9)
        assert policy.score(rare, 0.0) < policy.score(popular, 0.0)

    def test_lfu_recency_breaks_frequency_ties(self):
        policy = LFUPolicy()
        older = element(frequency=3, last_accessed_at=10.0)
        newer = element(frequency=3, last_accessed_at=20.0)
        assert policy.score(older, 0.0) < policy.score(newer, 0.0)

    def test_lfu_recency_never_outweighs_frequency(self):
        policy = LFUPolicy()
        frequent_old = element(frequency=4, last_accessed_at=0.0)
        rare_recent = element(frequency=3, last_accessed_at=900000.0)
        assert policy.score(frequent_old, 0.0) > policy.score(rare_recent, 0.0)

    def test_fifo_orders_by_creation(self):
        policy = FIFOPolicy()
        first = element(created_at=1.0)
        second = element(created_at=2.0)
        assert policy.score(first, 0.0) < policy.score(second, 0.0)

    def test_size_aware_lfu(self):
        policy = SizeAwareLFUPolicy()
        dense = element(frequency=4, size_tokens=10)
        bulky = element(frequency=4, size_tokens=1000)
        assert policy.score(dense, 0.0) > policy.score(bulky, 0.0)
        assert policy.score(element(size_tokens=0), 0.0) == 0.0


class TestRegistry:
    def test_all_policies_resolvable(self):
        for name in ("lcfu", "lru", "lfu", "fifo", "size-lfu"):
            assert policy_by_name(name).name == name

    def test_unknown_policy_rejected(self):
        with pytest.raises(ValueError):
            policy_by_name("arc")
