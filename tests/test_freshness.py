"""Tests for time-varying knowledge; the freshness study's claims are
``freshness_study.check`` (``tests/test_claims.py``)."""

import pytest

from repro.core import Query
from repro.network import RemoteDataService
from repro.workloads.facts import Fact, FactUniverse


def universe():
    return FactUniverse(
        "u",
        [
            Fact(fact_id="stable", core="capital france", answer="paris",
                 staticity=10),
            Fact(fact_id="volatile", core="price copper", answer="level",
                 staticity=2),
        ],
    )


class TestResolveAt:
    def test_epoch_period_doubles_with_staticity(self):
        assert FactUniverse.epoch_period(3) == 2 * FactUniverse.epoch_period(2)

    def test_epoch_period_validation(self):
        with pytest.raises(ValueError):
            FactUniverse.epoch_period(0)

    def test_stable_fact_never_changes_in_horizon(self):
        facts = universe()
        query = Query("q", fact_id="stable")
        assert facts.resolve_at(query, 0.0) == facts.resolve_at(query, 20000.0)
        assert facts.resolve_at(query, 0.0) == facts.resolve(query)

    def test_volatile_fact_changes_per_epoch(self):
        facts = universe()
        query = Query("q", fact_id="volatile")
        period = FactUniverse.epoch_period(2)
        first = facts.resolve_at(query, 0.0)
        second = facts.resolve_at(query, period + 1.0)
        third = facts.resolve_at(query, 2 * period + 1.0)
        assert first != second != third
        assert "[rev 1]" in second and "[rev 2]" in third

    def test_within_epoch_stable(self):
        facts = universe()
        query = Query("q", fact_id="volatile")
        period = FactUniverse.epoch_period(2)
        assert facts.resolve_at(query, 1.0) == facts.resolve_at(query, period - 1.0)

    def test_unknown_fact_falls_back(self):
        facts = universe()
        result = facts.resolve_at(Query("mystery", fact_id="zzz"), 100.0)
        assert "mystery" in result

    def test_negative_time_rejected(self):
        with pytest.raises(ValueError):
            universe().resolve_at(Query("q", fact_id="stable"), -1.0)


class TestTimeAwareRemote:
    def test_fetch_at_uses_completion_time(self):
        facts = universe()
        service = RemoteDataService(
            latency=0.1, time_resolver=facts.time_resolver()
        )
        query = Query("q", fact_id="volatile")
        period = FactUniverse.epoch_period(2)
        early = service.fetch_at(query, now=0.0)
        late = service.fetch_at(query, now=period + 5.0)
        assert early.result != late.result

    def test_des_fetch_uses_sim_time(self):
        from repro.sim import Simulator

        facts = universe()
        service = RemoteDataService(
            latency=0.1, time_resolver=facts.time_resolver()
        )
        period = FactUniverse.epoch_period(2)
        sim = Simulator()
        holder = {}

        def client():
            yield sim.timeout(period + 1.0)
            holder["late"] = yield from service.fetch(sim, Query("q", fact_id="volatile"))

        sim.process(client())
        sim.run()
        assert "[rev 1]" in holder["late"].result
