"""Tests for cost accounting."""

import pytest

from repro.network import CostMeter, PRICE_GOOGLE_SEARCH_PER_CALL, PRICE_H100_PER_HOUR


class TestCostMeter:
    def test_api_charges_accumulate(self):
        meter = CostMeter()
        meter.charge_api_call(0.005)
        meter.charge_api_call(0.010, tool="web")
        assert meter.api_cost == pytest.approx(0.015)
        assert meter.api_calls == 2

    def test_by_tool_breakdown(self):
        meter = CostMeter()
        meter.charge_api_call(0.005, tool="search")
        meter.charge_api_call(0.005, tool="search")
        meter.charge_api_call(0.010, tool="rag")
        breakdown = meter.by_tool()
        assert breakdown["search"] == pytest.approx(0.010)
        assert breakdown["rag"] == pytest.approx(0.010)

    def test_negative_charges_rejected(self):
        meter = CostMeter()
        with pytest.raises(ValueError):
            meter.charge_api_call(-0.01)

    def test_paper_constants(self):
        # Table 1 / §2.2 figures used throughout the cost analysis.
        assert PRICE_GOOGLE_SEARCH_PER_CALL == 0.005
        assert PRICE_H100_PER_HOUR == 1.49
