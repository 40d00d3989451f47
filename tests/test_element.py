"""Tests for the SemanticElement cache unit."""

import pytest

from repro.core import SemanticElement


def make_element(**overrides) -> SemanticElement:
    defaults = dict(
        element_id=1,
        key="who painted the mona lisa",
        value="leonardo da vinci",
        staticity=9,
        retrieval_latency=0.4,
        retrieval_cost=0.005,
        size_tokens=32,
        created_at=10.0,
        last_accessed_at=10.0,
        expires_at=100.0,
    )
    defaults.update(overrides)
    return SemanticElement(**defaults)


class TestSemanticElement:
    def test_ttl_remaining(self):
        element = make_element()
        assert element.ttl_remaining(now=40.0) == pytest.approx(60.0)

    def test_is_expired_boundary(self):
        element = make_element()
        assert not element.is_expired(99.999)
        assert element.is_expired(100.0)

    def test_infinite_ttl_never_expires(self):
        element = make_element(expires_at=float("inf"))
        assert not element.is_expired(1e12)

    def test_record_hit_updates_frequency_and_recency(self):
        element = make_element()
        element.record_hit(now=20.0)
        element.record_hit(now=30.0)
        assert element.frequency == 2
        assert element.last_accessed_at == 30.0

    def test_empty_key_rejected(self):
        with pytest.raises(ValueError):
            make_element(key="")

    def test_staticity_bounds(self):
        with pytest.raises(ValueError):
            make_element(staticity=0)
        with pytest.raises(ValueError):
            make_element(staticity=11)

    def test_negative_metrics_rejected(self):
        with pytest.raises(ValueError):
            make_element(retrieval_latency=-0.1)
        with pytest.raises(ValueError):
            make_element(retrieval_cost=-0.1)
        with pytest.raises(ValueError):
            make_element(frequency=-1)

    def test_prefetched_defaults_false(self):
        assert not make_element().prefetched
