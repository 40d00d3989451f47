"""Tests for judger fine-tuning (§5); the drift study's claims are
``recalibration_overhead.check_drift`` (``tests/test_claims.py``)."""

import numpy as np
import pytest

from repro.core import ThresholdRecalibrator
from repro.judger import SimulatedJudger


def _labelled_records(n=50):
    rng = np.random.default_rng(0)
    return [
        (f"q{i}", float(rng.beta(20, 1)), "F", "F") for i in range(n)
    ]


class TestFineTune:
    def test_requires_min_records(self):
        recalibrator = ThresholdRecalibrator(min_records=20, sample_size=5)
        judger = SimulatedJudger(seed=1, flip_rate=0.1)
        assert not recalibrator.fine_tune(judger)
        assert judger.flip_rate == 0.1

    def test_moves_parameters_toward_calibrated_values(self):
        recalibrator = ThresholdRecalibrator(min_records=10, sample_size=50)
        recalibrator.ingest(_labelled_records())
        judger = SimulatedJudger(seed=1, flip_rate=0.2)
        judger.neg_alpha, judger.neg_beta = 12.0, 2.0
        assert recalibrator.fine_tune(judger, decay=0.5)
        assert judger.flip_rate == pytest.approx(0.101)
        assert judger.neg_alpha == pytest.approx((12.0 + 0.8) / 2)
        assert judger.neg_beta == pytest.approx((2.0 + 20.0) / 2)

    def test_repeated_rounds_converge(self):
        recalibrator = ThresholdRecalibrator(min_records=10, sample_size=50)
        recalibrator.ingest(_labelled_records())
        judger = SimulatedJudger(seed=1, flip_rate=0.3)
        for _ in range(30):
            recalibrator.fine_tune(judger)
        assert judger.flip_rate == pytest.approx(0.002, abs=0.005)

    def test_judger_without_parameters_untouched(self):
        from repro.judger import HeuristicJudger

        recalibrator = ThresholdRecalibrator(min_records=10, sample_size=50)
        recalibrator.ingest(_labelled_records())
        assert not recalibrator.fine_tune(HeuristicJudger())

    def test_invalid_decay_rejected(self):
        recalibrator = ThresholdRecalibrator()
        with pytest.raises(ValueError):
            recalibrator.fine_tune(SimulatedJudger(), decay=1.0)


class TestForget:
    def test_forget_all(self):
        recalibrator = ThresholdRecalibrator(min_records=10, sample_size=50)
        recalibrator.ingest(_labelled_records())
        recalibrator.forget()
        assert recalibrator.validation_size == 0

    def test_forget_keep_last(self):
        recalibrator = ThresholdRecalibrator(min_records=10, sample_size=50)
        recalibrator.ingest(_labelled_records())
        recalibrator.forget(keep_last=7)
        assert recalibrator.validation_size == 7

    def test_negative_keep_rejected(self):
        with pytest.raises(ValueError):
            ThresholdRecalibrator().forget(keep_last=-1)
