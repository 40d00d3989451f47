"""Tests for seed derivation."""

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
