"""Tests for AsteriaConfig validation and derived latencies."""

import pytest

from repro.core import AsteriaConfig


class TestValidation:
    def test_defaults_valid(self):
        config = AsteriaConfig()
        assert config.tau_sim == 0.7
        assert config.tau_lsm == 0.9

    @pytest.mark.parametrize(
        "kwargs",
        [
            {"tau_sim": 1.5},
            {"tau_lsm": -0.1},
            {"max_candidates": 0},
            {"capacity_items": 0},
            {"default_ttl": 0.0},
            {"ann_latency": -1.0},
            {"prefetch_confidence": 2.0},
            {"prefetch_max_per_event": 0},
            {"recalibration_interval": 0.0},
            {"recalibration_samples": 0},
            {"target_precision": 0.0},
            {"match": "fuzzy"},
        ],
    )
    def test_invalid_values_rejected(self, kwargs):
        with pytest.raises(ValueError):
            AsteriaConfig(**kwargs)

    def test_none_capacity_and_ttl_allowed(self):
        config = AsteriaConfig(capacity_items=None, default_ttl=None)
        assert config.capacity_items is None


class TestCacheCheckLatency:
    def test_no_judging_is_ann_only_cost(self):
        config = AsteriaConfig()
        assert config.cache_check_latency(judged=0) == pytest.approx(0.02)

    def test_one_candidate_matches_figure_11(self):
        config = AsteriaConfig()
        # 0.02 ANN + (0.02 base + 0.01 per candidate) = 0.05 total; the
        # judger part is the paper's 0.03 s.
        assert config.cache_check_latency(judged=1) == pytest.approx(0.05)

    def test_scales_with_candidates(self):
        config = AsteriaConfig()
        assert config.cache_check_latency(judged=3) == pytest.approx(0.07)

    def test_ann_only_mode_skips_judger_cost(self):
        config = AsteriaConfig(match="ann_only")
        assert config.cache_check_latency(judged=3) == pytest.approx(0.02)
