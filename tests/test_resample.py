"""Bootstrap weight generators and NB draw matrices."""

import numpy as np
import pytest

from nbvoi import (
    InputError,
    LogisticDgm,
    Threshold,
    ValidationSample,
    bootstrap_nb_draws,
    bootstrap_nb_draws_grid,
    dirichlet_weights,
    dump_draws,
    generate_synthetic,
    make_thresholds,
    moments,
    multinomial_weights,
    nb_all,
    nb_model,
    substream,
    weighted_nb,
)


class TestDirichletWeights:
    def test_single_point_simplex(self):
        wv = dirichlet_weights(1, substream(0, 9))
        assert wv.weights.tolist() == [1.0]

    def test_sum_to_one_within_tolerance(self):
        rng = substream(1, 9)
        for _ in range(200):
            wv = dirichlet_weights(17, rng)
            assert abs(wv.weights.sum() - 1.0) <= 1e-12
            assert wv.weights.min() >= 0.0
            assert wv.kind == "dirichlet"
            assert wv.counts is None

    def test_flat_dirichlet_moments(self):
        """For Dirichlet(1,1,1,1): mean 1/4, variance 3/(16*5) = 0.0375."""
        rng = substream(2, 9)
        draws = np.array([dirichlet_weights(4, rng).weights for _ in range(100_000)])
        mean_se = draws[:, 0].std(ddof=1) / np.sqrt(draws.shape[0])
        assert abs(draws[:, 0].mean() - 0.25) < 3 * mean_se
        assert draws[:, 0].var(ddof=1) == pytest.approx(0.0375, rel=0.05)

    def test_rejects_zero_n(self):
        with pytest.raises(InputError):
            dirichlet_weights(0, substream(0, 9))


class TestMultinomialWeights:
    def test_single_point(self):
        wv = multinomial_weights(1, substream(3, 9))
        assert wv.weights.tolist() == [1.0]
        assert wv.counts.tolist() == [1]

    def test_counts_conserved_exactly(self):
        rng = substream(4, 9)
        for _ in range(200):
            wv = multinomial_weights(13, rng)
            assert int(wv.counts.sum()) == 13
            assert np.array_equal(wv.counts / 13, wv.weights)

    def test_all_mass_in_one_cell_probability(self):
        """P(first cell gets all 3 of 3 draws) = (1/3)^3 = 1/27."""
        rng = substream(5, 9)
        n_draws = 100_000
        hits = sum(
            multinomial_weights(3, rng).counts[0] == 3 for _ in range(n_draws)
        )
        p = 1.0 / 27.0
        se = np.sqrt(p * (1 - p) / n_draws)
        assert hits / n_draws == pytest.approx(p, abs=3 * se)

    def test_rejects_zero_n(self):
        with pytest.raises(InputError):
            multinomial_weights(0, substream(0, 9))


def _toy_sample():
    return ValidationSample([1, 0, 1, 0, 0, 1, 0, 1],
                            [0.9, 0.8, 0.1, 0.05, 0.5, 0.45, 0.3, 0.7])


class TestBootstrapNbDraws:
    def test_singleton_sample_rows_are_constant(self):
        s = ValidationSample([1], [0.9])
        t = Threshold(0.5)
        for method in ("bayesian", "ordinary"):
            mat = bootstrap_nb_draws(s, t, n_reps=50, method=method, seed=1)
            assert np.all(mat.draws == 1.0)

    def test_column_means_converge_to_sample_estimates(self):
        s = _toy_sample()
        t = Threshold(0.2)
        for method in ("bayesian", "ordinary"):
            mat = bootstrap_nb_draws(s, t, n_reps=10_000, method=method, seed=2)
            for col, target in ((0, nb_model(s, t)), (1, nb_all(s, t))):
                vals = mat.draws[:, col]
                se = vals.std(ddof=1) / np.sqrt(vals.size)
                assert vals.mean() == pytest.approx(target, abs=3 * se)

    def test_bayesian_and_ordinary_agree_in_mean(self):
        s = _toy_sample()
        t = Threshold(0.2)
        a = bootstrap_nb_draws(s, t, n_reps=10_000, method="bayesian", seed=3)
        b = bootstrap_nb_draws(s, t, n_reps=10_000, method="ordinary", seed=3)
        for col in (0, 1):
            se = np.hypot(
                a.draws[:, col].std(ddof=1) / 100.0,
                b.draws[:, col].std(ddof=1) / 100.0,
            )
            assert a.draws[:, col].mean() == pytest.approx(
                b.draws[:, col].mean(), abs=3 * se
            )

    def test_fixed_seed_identical(self):
        s = _toy_sample()
        t = Threshold(0.3)
        a = bootstrap_nb_draws(s, t, n_reps=300, method="ordinary", seed=7)
        b = bootstrap_nb_draws(s, t, n_reps=300, method="ordinary", seed=7)
        assert np.array_equal(a.draws, b.draws)

    def test_replicates_are_a_prefix_of_longer_runs(self):
        """Replicate l depends only on its own substream, so a shorter run
        is the prefix of a longer one (and any split of the replicates
        gives the same rows)."""
        s = _toy_sample()
        ts = make_thresholds([0.1, 0.3])
        for method in ("bayesian", "ordinary"):
            long = bootstrap_nb_draws_grid(s, ts, n_reps=200, method=method, seed=5)
            short = bootstrap_nb_draws_grid(s, ts, n_reps=150, method=method, seed=5)
            assert np.array_equal(long.draws[:150], short.draws)

    def test_rows_recomputable_from_stored_weights(self):
        s = _toy_sample()
        t = Threshold(0.25)
        mat = bootstrap_nb_draws(s, t, n_reps=100, method="bayesian", seed=11,
                                 keep_weights=True)
        for l in (0, 17, 99):
            m, a = weighted_nb(s, mat.weights[l], t)
            assert mat.draws[l, 0] == pytest.approx(m, rel=1e-12, abs=1e-15)
            assert mat.draws[l, 1] == pytest.approx(a, rel=1e-12, abs=1e-15)

    def test_grid_reuses_weights_across_thresholds(self):
        """Same replicate index, same weights at every threshold: the
        treat-all column differs across thresholds only through the
        deterministic harm weight."""
        s = _toy_sample()
        ts = make_thresholds([0.2, 0.4])
        grid = bootstrap_nb_draws_grid(s, ts, n_reps=400, method="bayesian", seed=13)
        # nb_all = (1+c) * sum(w*y) - c  =>  sum(w*y) is recoverable per threshold
        c0, c1 = ts[0].harm_weight, ts[1].harm_weight
        wy0 = (grid.draws[:, 0, 1] + c0) / (1 + c0)
        wy1 = (grid.draws[:, 1, 1] + c1) / (1 + c1)
        np.testing.assert_allclose(wy0, wy1, rtol=1e-10)

    def test_single_threshold_matches_grid_slice(self):
        s = _toy_sample()
        ts = make_thresholds([0.2, 0.4])
        grid = bootstrap_nb_draws_grid(s, ts, n_reps=150, method="ordinary", seed=21)
        single = bootstrap_nb_draws(s, ts[0], n_reps=150, method="ordinary", seed=21)
        assert np.array_equal(grid.at(0).draws, single.draws)

    def test_extra_model_columns(self):
        s = _toy_sample()
        second = np.clip(s.risks * 0.8 + 0.05, 0, 1)
        mat = bootstrap_nb_draws(s, Threshold(0.2), n_reps=50, method="bayesian",
                                 seed=1, extra_risks=second)
        assert mat.draws.shape == (50, 3)
        assert mat.n_models == 2
        assert mat.strategy_names() == ["model_1", "model_2", "treat_all"]

    def test_rejects_bad_inputs(self):
        s = _toy_sample()
        with pytest.raises(InputError):
            bootstrap_nb_draws(s, Threshold(0.2), n_reps=0, seed=0)
        with pytest.raises(InputError):
            bootstrap_nb_draws(s, Threshold(0.2), n_reps=10, method="jackknife", seed=0)
        with pytest.raises(InputError):
            bootstrap_nb_draws(s, Threshold(0.2), n_reps=10, seed=0,
                               extra_risks=np.array([1.5] * s.n))


class TestCovarianceAgainstMoments:
    def test_empirical_bootstrap_covariance_matches_moment_formulas(self):
        """Ordinary-bootstrap draw covariance vs the plug-in MomentSet, 15%
        relative tolerance at n = 2000."""
        dgm = LogisticDgm(intercept=-1.55, slopes=(0.77,))
        s = generate_synthetic(dgm, 2000, substream(42, 2))
        t = Threshold(0.2)
        mat = bootstrap_nb_draws(s, t, n_reps=10_000, method="ordinary", seed=6)
        emp = np.cov(mat.draws.T)
        m = moments(s, t)
        assert emp[0, 0] == pytest.approx(m.var_model, rel=0.15)
        assert emp[1, 1] == pytest.approx(m.var_all, rel=0.15)
        assert emp[0, 1] == pytest.approx(m.cov, rel=0.15)


class TestDumpDraws:
    def test_round_trip(self, tmp_path):
        s = _toy_sample()
        mat = bootstrap_nb_draws(s, Threshold(0.2), n_reps=25, method="bayesian", seed=9)
        path = tmp_path / "draws.csv"
        dump_draws(mat, path)
        lines = path.read_text().splitlines()
        assert lines[0] == "nb_model,nb_treat_all"
        assert len(lines) == 26
        back = np.loadtxt(path, delimiter=",", skiprows=1)
        assert np.array_equal(back, mat.draws)
