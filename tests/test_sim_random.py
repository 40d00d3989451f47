"""Tests for named RNG streams and seed derivation."""

from repro.sim import RngRegistry
from repro.sim.random import derive_seed


class TestDeriveSeed:
    def test_deterministic(self):
        assert derive_seed(42, "x") == derive_seed(42, "x")

    def test_differs_by_name(self):
        assert derive_seed(42, "a") != derive_seed(42, "b")

    def test_differs_by_root(self):
        assert derive_seed(1, "a") != derive_seed(2, "a")

    def test_similar_names_unrelated(self):
        seeds = {derive_seed(0, f"stream{i}") for i in range(100)}
        assert len(seeds) == 100

    def test_fits_in_64_bits(self):
        assert 0 <= derive_seed(123, "anything") < 2**64


class TestRngRegistry:
    def test_streams_cached_by_name(self):
        registry = RngRegistry(seed=1)
        assert registry.stream("a") is registry.stream("a")

    def test_streams_independent(self):
        registry = RngRegistry(seed=1)
        a_values = registry.stream("a").random(5).tolist()
        b_values = registry.stream("b").random(5).tolist()
        assert a_values != b_values

    def test_same_seed_same_draws(self):
        first = RngRegistry(seed=9).stream("net").random(10)
        second = RngRegistry(seed=9).stream("net").random(10)
        assert first.tolist() == second.tolist()

    def test_consuming_one_stream_does_not_shift_another(self):
        registry_a = RngRegistry(seed=5)
        registry_a.stream("one").random(1000)
        from_disturbed = registry_a.stream("two").random(3).tolist()
        registry_b = RngRegistry(seed=5)
        from_fresh = registry_b.stream("two").random(3).tolist()
        assert from_disturbed == from_fresh
