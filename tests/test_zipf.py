"""Tests for the Zipf sampler."""

import numpy as np
import pytest

from repro.workloads import ZipfSampler


class TestZipfSampler:
    def test_probabilities_sum_to_one(self):
        sampler = ZipfSampler(n=100, s=0.99)
        total = sum(sampler.probability(rank) for rank in range(100))
        assert total == pytest.approx(1.0)

    def test_probabilities_decreasing(self):
        sampler = ZipfSampler(n=50, s=0.99)
        probabilities = [sampler.probability(rank) for rank in range(50)]
        assert probabilities == sorted(probabilities, reverse=True)

    def test_s_zero_is_uniform(self):
        sampler = ZipfSampler(n=10, s=0.0)
        assert sampler.probability(0) == pytest.approx(0.1)
        assert sampler.probability(9) == pytest.approx(0.1)

    def test_samples_in_range(self):
        sampler = ZipfSampler(n=20, s=0.99)
        rng = np.random.default_rng(0)
        ranks = sampler.sample_many(rng, 1000)
        assert ranks.min() >= 0 and ranks.max() < 20

    def test_empirical_matches_analytic_head(self):
        sampler = ZipfSampler(n=100, s=0.99)
        rng = np.random.default_rng(1)
        ranks = sampler.sample_many(rng, 50000)
        empirical_top = float(np.mean(ranks == 0))
        assert empirical_top == pytest.approx(sampler.probability(0), rel=0.1)

    def test_head_mass_monotone(self):
        sampler = ZipfSampler(n=100, s=0.99)
        probabilities = [sampler.probability(rank) for rank in range(100)]
        assert probabilities == sorted(probabilities, reverse=True)
        assert sum(probabilities) == pytest.approx(1.0)

    def test_head_dominates_at_high_skew(self):
        sampler = ZipfSampler(n=1000, s=0.99)
        head = sum(sampler.probability(rank) for rank in range(10))
        assert head > 0.3  # Few head topics, most traffic.

    def test_single_sample_deterministic_per_seed(self):
        sampler = ZipfSampler(n=100, s=0.99)
        a = sampler.sample(np.random.default_rng(7))
        b = sampler.sample(np.random.default_rng(7))
        assert a == b

    def test_validation(self):
        with pytest.raises(ValueError):
            ZipfSampler(n=0)
        with pytest.raises(ValueError):
            ZipfSampler(n=10, s=-1.0)
        sampler = ZipfSampler(n=10)
        with pytest.raises(IndexError):
            sampler.probability(10)
        with pytest.raises(ValueError):
            sampler.sample_many(np.random.default_rng(0), -1)
