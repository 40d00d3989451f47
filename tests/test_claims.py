"""The paper's claims: every experiment holds its own at its quick scale, and
a claim fails when the mechanism behind it is taken away."""

import pytest

from repro.cli import EXPERIMENTS
from repro.core import AsteriaConfig
from repro.experiments import (
    fig2_zipf,
    fig13_accuracy,
    recalibration_overhead,
    table6_lcfu,
)
from repro.experiments.harness import SystemSetup


@pytest.mark.parametrize("name", list(EXPERIMENTS))
def test_claims_hold_at_quick_scale(name):
    experiment = EXPERIMENTS[name]
    assert experiment.check(experiment.run(**experiment.quick)) == []


class TestClaimsHaveTeeth:
    def test_lru_in_lcfus_place_misses_table6(self):
        result = table6_lcfu.run(
            **{**table6_lcfu.QUICK, "policies": ("lru", "lfu", "lru")}
        )
        result.rows[2]["policy"] = "lcfu"
        assert "LCFU throughput >= LFU" in table6_lcfu.check(result)

    def test_asteria_without_its_judger_misses_fig13(self, monkeypatch):
        def judgerless(system, **fields):
            return SystemSetup("ann_only" if system == "asteria" else system, **fields)

        monkeypatch.setattr(fig13_accuracy, "SystemSetup", judgerless)
        failed = fig13_accuracy.check(fig13_accuracy.run(**fig13_accuracy.QUICK))
        assert "strategyqa: asteria EM within 0.02 of vanilla" in failed

    def test_drift_without_recalibration_misses_its_claim(self, monkeypatch):
        def never_recalibrate(**fields):
            fields.update(recalibration_enabled=False, finetune_enabled=False)
            return AsteriaConfig(**fields)

        monkeypatch.setattr(recalibration_overhead, "AsteriaConfig", never_recalibrate)
        failed = recalibration_overhead.check_drift(
            recalibration_overhead.run_drift(**recalibration_overhead.DRIFT_QUICK)
        )
        assert "recalibration restores precision >= 0.999" in failed


def test_format_table_renders():
    result = fig2_zipf.run(window_draws=(("24h", 1000),), n_topics=100)
    text = result.format_table()
    assert "Figure 2" in text and "|" in text
