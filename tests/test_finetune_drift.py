"""Tests for judger fine-tuning (§5) and for Algorithm 1 on a serving tier;
the drift study's claims are ``recalibration_overhead.check_drift``
(``tests/test_claims.py``)."""

import asyncio

import numpy as np
import pytest

from repro.core import AsteriaConfig, Query, ThresholdRecalibrator
from repro.factory import build_async_engine, build_proc_engine, build_remote
from repro.judger import SimulatedJudger
from repro.workloads.datasets import build_dataset
from repro.workloads.skewed import SkewedWorkload


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


PARAPHRASES = [
    "who painted the mona lisa",
    "the mona lisa was painted by who",
    "mona lisa painter",
    "painter of the mona lisa",
    "who painted mona lisa",
]


class TestOnAServingTier:
    def test_fine_tuning_tunes_the_async_tiers_judger(self):
        config = AsteriaConfig(
            recalibration_enabled=True,
            recalibration_interval=30.0,
            recalibration_samples=20,
            finetune_enabled=True,
        )
        engine = build_async_engine(build_remote(seed=0), config, seed=0)
        judger = engine.cache.sine.judger
        judger.flip_rate = 0.05

        async def drive():
            for i in range(40):  # judged hits for the eval log
                await engine.serve(Query(PARAPHRASES[i % 5], fact_id="F"), float(i))
            await engine.serve(Query(PARAPHRASES[0], fact_id="F"), 45.0)  # one round

        asyncio.run(drive())
        assert engine.metrics.recalibrations == 1
        tuned = 0.002 + (0.05 - 0.002) * 0.7
        assert judger.flip_rate == pytest.approx(tuned)

    def test_proc_tier_refuses_fine_tuning(self):
        config = AsteriaConfig(recalibration_enabled=True, finetune_enabled=True)
        with pytest.raises(ValueError, match="finetune_enabled"):
            build_proc_engine(build_remote(), config, workers=2, launch=False)

    @pytest.mark.parametrize("recalibrate", [False, True], ids=["off", "on"])
    def test_recalibration_holds_precision_under_judger_drift(self, recalibrate):
        """``recalibration_overhead.run_drift`` through the async tier:
        mid-run non-equivalent pairs start scoring Beta(12, 2), and only
        Algorithm 1 keeps wrong answers out of phase 2."""
        dataset = build_dataset("musique", seed=0)
        config = AsteriaConfig(
            capacity_items=dataset.capacity_for(0.1),
            recalibration_enabled=recalibrate,
            recalibration_interval=20.0,
            recalibration_samples=20,
        )
        engine = build_async_engine(
            build_remote(dataset.universe, seed=0), config, seed=0
        )

        def phase(seed):
            tasks = SkewedWorkload(dataset, seed=seed).single_hop_tasks(300)
            return [query for task in tasks for query in task.queries]

        async def drive():
            now = 0.0
            for query in phase(1):
                await engine.serve(query, now)
                now += 1.0
            judger = engine.cache.sine.judger
            judger.neg_alpha, judger.neg_beta = 12.0, 2.0
            if engine.engine.recalibrator is not None:
                engine.engine.recalibrator.forget()  # pre-drift labels are stale
            engine.metrics.reset()
            for query in phase(2):
                await engine.serve(query, now)
                now += 1.0

        asyncio.run(drive())
        metrics = engine.metrics
        precision = (metrics.served_correct - metrics.misses) / metrics.hits
        if recalibrate:
            assert metrics.recalibrations >= 2
            assert precision >= 0.999
        else:
            assert precision < 0.995
