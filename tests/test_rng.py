"""Substream determinism and distribution contracts."""

import numpy as np

from nbvoi import substream


class TestSubstream:
    def test_same_key_same_stream(self):
        a = substream(42, 1, 5).random(8)
        b = substream(42, 1, 5).random(8)
        assert np.array_equal(a, b)

    def test_different_keys_differ(self):
        a = substream(42, 1, 5).random(8)
        b = substream(42, 1, 6).random(8)
        c = substream(43, 1, 5).random(8)
        assert not np.array_equal(a, b)
        assert not np.array_equal(a, c)

    def test_matches_seedsequence_spawn(self):
        """Directly keyed streams coincide with SeedSequence.spawn children."""
        children = np.random.SeedSequence(7).spawn(4)
        spawned = np.random.Generator(np.random.PCG64(children[2])).random(5)
        keyed = substream(7, 2).random(5)
        assert np.array_equal(spawned, keyed)

    def test_tuple_seed(self):
        a = substream((3, 1, 4), 0).random(4)
        b = substream((3, 1, 4), 0).random(4)
        c = substream((3, 1, 5), 0).random(4)
        assert np.array_equal(a, b)
        assert not np.array_equal(a, c)


class TestDistributions:
    """Draws from a substream follow the laws the package relies on: unit
    exponentials (Bayesian bootstrap), uniform indices (ordinary
    bootstrap), normals and uniforms (synthetic data)."""

    def test_exponential_mean(self):
        x = substream(0, 9).standard_exponential(1_000_000)
        se = x.std(ddof=1) / 1000.0
        assert abs(x.mean() - 1.0) < 3 * se

    def test_normal_mean_and_sd(self):
        x = substream(1, 9).standard_normal(1_000_000)
        assert abs(x.mean()) < 3e-3
        assert abs(x.std(ddof=1) - 1.0) < 3e-3

    def test_uniform_bounds_and_mean(self):
        x = substream(2, 9).random(1_000_000)
        assert x.min() >= 0.0 and x.max() < 1.0
        assert abs(x.mean() - 0.5) < 3 * (1 / np.sqrt(12)) / 1000.0

    def test_categorical_uniform_cells(self):
        idx = substream(3, 9).integers(0, 5, size=500_000)
        counts = np.bincount(idx, minlength=5) / 500_000
        se = np.sqrt(0.2 * 0.8 / 500_000)
        assert np.all(np.abs(counts - 0.2) < 4 * se)

    def test_fixed_seed_reproduces_sequence(self):
        g1, g2 = substream(5, 4), substream(5, 4)
        assert np.array_equal(g1.standard_exponential(10), g2.standard_exponential(10))
        assert np.array_equal(g1.standard_normal(10), g2.standard_normal(10))
        assert np.array_equal(g1.integers(0, 7, size=10), g2.integers(0, 7, size=10))
