"""Substream determinism and distribution contracts."""

import numpy as np
import pytest

from nbvoi import (
    InputError,
    SweepConfig,
    ValidationSample,
    decision_curve,
    evpi_threshold_sweep,
    make_thresholds,
    substream,
)
from nbvoi.resample import bootstrap_nb_draws_grid


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


_S = ValidationSample([1, 0, 1, 0, 0, 1], [0.9, 0.8, 0.1, 0.05, 0.5, 0.3])
_TS = make_thresholds([0.2, 0.4])


@pytest.mark.filterwarnings("ignore::nbvoi.SmallEffectiveSampleWarning")
@pytest.mark.parametrize("call", [
    pytest.param(lambda seed: decision_curve(_S, _TS, n_boot=10, seed=seed),
                 id="decision_curve"),
    pytest.param(lambda seed: decision_curve(_S, _TS, n_boot=0, seed=seed),
                 id="decision_curve_no_bands"),
    pytest.param(lambda seed: evpi_threshold_sweep(_S, _TS, ("bayesian",), 10, seed),
                 id="evpi_bootstrap"),
    pytest.param(lambda seed: evpi_threshold_sweep(_S, _TS, ("asymptotic",), 10, seed),
                 id="evpi_asymptotic_only"),
    pytest.param(lambda seed: bootstrap_nb_draws_grid(_S, _TS, n_reps=10, seed=seed),
                 id="bootstrap_nb_draws_grid"),
    pytest.param(lambda seed: substream(seed, 0), id="substream"),
    pytest.param(lambda seed: substream((3, seed), 0), id="substream_tuple_component"),
    pytest.param(lambda seed: SweepConfig(sizes=(50,), thresholds=_TS, seed=seed),
                 id="sweep_config"),
])
@pytest.mark.parametrize("seed", [-1, 1.5])
def test_every_entry_rejects_a_bad_seed_naming_it(call, seed):
    """The seed rule lives in ``rng``: the library rejects a negative or
    non-integer seed with an InputError naming it, even where nothing is
    drawn."""
    with pytest.raises(InputError, match=f"seed.*{seed}"):
        call(seed)
