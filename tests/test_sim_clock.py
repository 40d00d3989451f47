"""Tests for the virtual clock."""

import pytest

from repro.sim import SimClock


class TestSimClock:
    def test_starts_at_zero(self):
        assert SimClock().now == 0.0

    def test_starts_at_custom_time(self):
        assert SimClock(5.0).now == 5.0

    def test_negative_start_rejected(self):
        with pytest.raises(ValueError):
            SimClock(-1.0)

    def test_advance_to_jumps(self):
        clock = SimClock()
        clock.advance_to(10.0)
        assert clock.now == 10.0

    def test_advance_to_same_time_is_noop(self):
        clock = SimClock(4.0)
        clock.advance_to(4.0)
        assert clock.now == 4.0

    def test_advance_to_past_rejected(self):
        clock = SimClock(5.0)
        with pytest.raises(ValueError):
            clock.advance_to(4.9)

    def test_repr_contains_time(self):
        assert "1.5" in repr(SimClock(1.5))
