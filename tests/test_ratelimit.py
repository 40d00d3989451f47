"""Tests for rate limiters."""

import pytest

from repro.network import TokenBucket


class TestTokenBucket:
    def test_burst_grants_immediately(self):
        bucket = TokenBucket(rate=1.0, burst=3)
        assert all(bucket.try_acquire(0.0) for _ in range(3))
        assert not bucket.try_acquire(0.0)

    def test_refills_over_time(self):
        bucket = TokenBucket(rate=2.0, burst=1)
        assert bucket.try_acquire(0.0)
        assert not bucket.try_acquire(0.0)
        assert bucket.try_acquire(0.5)  # 0.5 s * 2/s = 1 token back

    def test_next_available_exact(self):
        bucket = TokenBucket(rate=2.0, burst=1)
        bucket.try_acquire(0.0)
        assert bucket.next_available(0.0) == pytest.approx(0.5)

    def test_next_available_now_when_token_ready(self):
        bucket = TokenBucket(rate=1.0, burst=1)
        assert bucket.next_available(0.0) == 0.0

    def test_tokens_capped_at_burst(self):
        bucket = TokenBucket(rate=10.0, burst=2)
        bucket.try_acquire(0.0)
        bucket.try_acquire(0.0)
        # Long idle: still only `burst` tokens available.
        assert bucket.try_acquire(100.0)
        assert bucket.try_acquire(100.0)
        assert not bucket.try_acquire(100.0)

    def test_per_minute_constructor(self):
        bucket = TokenBucket.per_minute(100)
        assert bucket.rate == pytest.approx(100 / 60)
        assert bucket.burst == 100

    def test_steady_state_rate_enforced(self):
        bucket = TokenBucket.per_minute(60, burst=1)  # 1/s
        granted = sum(bucket.try_acquire(t * 0.5) for t in range(240))
        # 120 s of half-second attempts at 1/s: about 120 grants.
        assert 118 <= granted <= 122

    def test_time_going_backwards_rejected(self):
        bucket = TokenBucket(rate=1.0)
        bucket.try_acquire(5.0)
        with pytest.raises(ValueError):
            bucket.try_acquire(4.0)

    def test_counters(self):
        bucket = TokenBucket(rate=1.0, burst=1)
        bucket.try_acquire(0.0)
        bucket.try_acquire(0.0)
        assert bucket.granted == 1
        assert bucket.rejected == 1

    def test_invalid_construction(self):
        with pytest.raises(ValueError):
            TokenBucket(rate=0.0)
        with pytest.raises(ValueError):
            TokenBucket(rate=1.0, burst=0)
        with pytest.raises(ValueError):
            TokenBucket.per_minute(0)
