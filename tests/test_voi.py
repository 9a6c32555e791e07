"""EVPI computations: bootstrap route, asymptotic route, and their agreement."""

import math
import warnings

import numpy as np
import pytest

from nbvoi import (
    InputError,
    LogisticDgm,
    SmallEffectiveSampleWarning,
    SweepConfig,
    Threshold,
    ValidationSample,
    decision_curve,
    evpi_threshold_sweep,
    generate_synthetic,
    make_thresholds,
    moments,
    population_scaled,
    substream,
    synthetic_sweep,
)
from nbvoi.resample import NbDrawMatrix, bootstrap_nb_draws_grid
from nbvoi.voi import MomentSet, _relative_evpi, evpi_asymptotic, evpi_bootstrap

T02 = Threshold(0.2)


def mat(rows, method="bayesian", seed=0):
    return NbDrawMatrix(draws=np.asarray(rows, dtype=float), method=method, seed=seed)


class TestEvpiBootstrap:
    def test_no_uncertainty(self):
        r = evpi_bootstrap(mat([[0.1, 0.05]] * 4))
        assert r.evpi == 0.0
        assert r.p_useful == 1.0
        assert r.best_strategy == "model"
        assert r.r_evpi == pytest.approx(1.0, rel=1e-12)

    def test_hand_example(self):
        r = evpi_bootstrap(mat([[0.1, 0.0], [0.0, 0.1]]))
        assert r.enb_perfect == pytest.approx(0.1, rel=1e-14)
        assert r.enb_current == pytest.approx(0.05, rel=1e-14)
        assert r.evpi == pytest.approx(0.05, rel=1e-14)
        assert r.p_useful == 0.5

    def test_treat_all_always_wins(self):
        rows = [[0.01, 0.05], [0.02, 0.06], [0.0, 0.055]]
        r = evpi_bootstrap(mat(rows))
        assert r.evpi == pytest.approx(0.0, abs=1e-15)
        assert r.best_strategy == "treat_all"
        assert r.p_useful == 0.0
        assert r.r_evpi is None

    def test_requires_two_rows(self):
        with pytest.raises(InputError):
            evpi_bootstrap(mat([[0.1, 0.05]]))

    def test_carries_method_and_seed(self):
        r = evpi_bootstrap(mat([[0.1, 0.0], [0.0, 0.1]], method="ordinary", seed=5))
        assert r.method == "ordinary_bootstrap"
        assert r.seed == 5
        assert r.n_reps == 2

    def test_mc_se_is_se_of_row_max_mean(self):
        rows = np.array([[0.1, 0.0], [0.0, 0.1], [0.2, 0.1], [-0.1, -0.2]])
        r = evpi_bootstrap(mat(rows))
        row_max = np.maximum(rows.max(axis=1), 0.0)
        assert r.mc_se == pytest.approx(row_max.std(ddof=1) / 2.0, rel=1e-12)

    def test_never_negative_by_construction(self):
        """Using column means for the current-information term makes the
        pre-clamp difference a within-sample Jensen gap, so it cannot go
        negative beyond rounding."""
        rng = np.random.default_rng(0)
        for _ in range(300):
            n = int(rng.integers(2, 40))
            rows = rng.normal(0.02, 0.05, size=(n, 2))
            r = evpi_bootstrap(mat(rows))
            assert r.enb_perfect - r.enb_current >= -1e-12

    def test_row_permutation_invariance(self):
        rng = np.random.default_rng(1)
        rows = rng.normal(0.03, 0.04, size=(500, 2))
        r1 = evpi_bootstrap(mat(rows))
        r2 = evpi_bootstrap(mat(rows[rng.permutation(500)]))
        assert r1.evpi == pytest.approx(r2.evpi, rel=1e-10, abs=1e-15)
        assert r1.p_useful == r2.p_useful

    def test_location_shift_in_positive_regime(self):
        rng = np.random.default_rng(2)
        rows = np.abs(rng.normal(0.1, 0.02, size=(400, 2))) + 0.01
        k = 0.37
        r0 = evpi_bootstrap(mat(rows))
        r1 = evpi_bootstrap(mat(rows + k))
        assert r1.enb_perfect == pytest.approx(r0.enb_perfect + k, rel=1e-12)
        assert r1.enb_current == pytest.approx(r0.enb_current + k, rel=1e-12)
        assert r1.evpi == pytest.approx(r0.evpi, abs=1e-12)

    def test_strategy_partition_sums_to_one(self):
        rng = np.random.default_rng(3)
        rows = rng.normal(0.0, 0.05, size=(1000, 2))
        m = mat(rows)
        winners = np.column_stack([np.zeros(1000), rows[:, 1], rows[:, 0]]).argmax(axis=1)
        p_none = np.mean(winners == 0)
        p_all = np.mean(winners == 1)
        assert evpi_bootstrap(m).p_useful + p_none + p_all == pytest.approx(1.0, abs=1e-12)

    @pytest.mark.parametrize("columns", [1, 3])
    def test_draws_without_exactly_two_columns_are_refused(self, columns):
        """The columns are ``[model, treat_all]``, nothing else."""
        with pytest.raises(InputError, match="N x 2"):
            mat(np.full((4, columns), 0.05))


class TestPUseful:
    def test_all_model_wins(self):
        assert evpi_bootstrap(mat([[0.1, 0.05]] * 3)).p_useful == 1.0

    def test_treat_none_wins_everywhere(self):
        assert evpi_bootstrap(mat([[-0.1, -0.2]] * 3)).p_useful == 0.0

    def test_strict_inequality_required(self):
        # model ties treat-all: not useful
        assert evpi_bootstrap(mat([[0.1, 0.1]] * 3)).p_useful == 0.0
        # model ties zero with negative treat-all: not useful
        assert evpi_bootstrap(mat([[0.0, -0.1]] * 3)).p_useful == 0.0


def _fractions(s, t):
    """P_TP, P_FP and P0 of a sample: the fractions of flagged events,
    flagged non-events and events."""
    flagged, events = s.risks >= t.z, s.outcomes == 1
    return (np.count_nonzero(flagged & events) / s.n, np.count_nonzero(flagged & ~events) / s.n,
            np.count_nonzero(events) / s.n)


class TestMoments:
    def test_hand_example_exact(self):
        """P_TP = 0.2, P_FP = 0.4, P0 = 0.4 at z = 0.2 gives
        var_model = 0.215/5, var_all = 0.075, cov = 0.04."""
        s = ValidationSample([1, 0, 1, 0, 0], [0.9, 0.8, 0.1, 0.05, 0.5])
        assert _fractions(s, T02) == (0.2, 0.4, 0.4)
        m = moments(s, T02)
        assert m.var_model == pytest.approx(0.043, rel=1e-12)
        assert m.var_all == pytest.approx(0.075, rel=1e-12)
        assert m.cov == pytest.approx(0.04, rel=1e-12)
        assert m.mean_model == pytest.approx(0.1, rel=1e-14)
        assert m.mean_all == pytest.approx(0.25, rel=1e-14)

    def test_binomial_variance_limit_without_false_positives(self):
        """With no flagged non-events, var_model collapses to the binomial
        variance of the true-positive fraction."""
        s = ValidationSample([1, 1, 0, 0, 1, 0], [0.9, 0.8, 0.1, 0.05, 0.7, 0.2])
        t = Threshold(0.6)
        p_tp, p_fp, _ = _fractions(s, t)
        assert p_fp == 0.0
        assert moments(s, t).var_model == pytest.approx(p_tp * (1 - p_tp) / s.n, rel=1e-12)

    def test_requires_two_observations(self):
        with pytest.raises(InputError):
            moments(ValidationSample([1], [0.5]), T02)

    def test_cauchy_schwarz_enforced(self):
        with pytest.raises(InputError):
            MomentSet(mean_model=0.1, mean_all=0.1, var_model=1e-4, var_all=1e-4, cov=2e-4)


class TestEvpiAsymptotic:
    def test_zero_variance_means_zero_evpi(self):
        m = MomentSet(mean_model=0.08, mean_all=0.05, var_model=0.0, var_all=0.0, cov=0.0)
        r = evpi_asymptotic(m)
        assert r.evpi == 0.0
        assert r.best_strategy == "model"
        assert r.p_useful == 1.0

    def test_perfectly_correlated_identical_strategies(self):
        """Equal means and variances with correlation 1: the model-vs-all
        comparison carries no uncertainty and EVPI reduces to E[(-NB)+] of
        the shared margin."""
        mu, var = 0.04, 9e-4
        m = MomentSet(mean_model=mu, mean_all=mu, var_model=var, var_all=var, cov=var)
        r = evpi_asymptotic(m)
        s = math.sqrt(var)
        expect = s * math.exp(-0.5 * (mu / s) ** 2) / math.sqrt(2 * math.pi) \
            - mu * (1 - 0.5 * (1 + math.erf(mu / s / math.sqrt(2))))
        assert r.evpi == pytest.approx(expect, rel=1e-9)

    def test_against_monte_carlo(self):
        m = MomentSet(mean_model=0.05, mean_all=0.04, var_model=1e-4, var_all=1e-4, cov=5e-5)
        r = evpi_asymptotic(m)
        rng = np.random.default_rng(77)
        n = 10_000_000
        z = rng.standard_normal((n, 2))
        s = math.sqrt(1e-4)
        rho = 0.5
        x = 0.05 + s * z[:, 0]
        y = 0.04 + s * (rho * z[:, 0] + math.sqrt(1 - rho * rho) * z[:, 1])
        best = np.maximum(0.0, np.maximum(x, y))
        se = best.std(ddof=1) / math.sqrt(n)
        mc_evpi = best.mean() - 0.05
        assert r.evpi == pytest.approx(mc_evpi, abs=3 * se)
        p_mc = np.mean((x > 0) & (x > y))
        se_p = math.sqrt(p_mc * (1 - p_mc) / n)
        assert r.p_useful == pytest.approx(p_mc, abs=4 * se_p)

    def test_psd_repair_within_tolerance(self):
        v = 1e-4
        eps = 1e-12  # breaches Cauchy-Schwarz by less than the repair floor
        m = MomentSet(mean_model=0.05, mean_all=0.04, var_model=v, var_all=v, cov=v + eps)
        r = evpi_asymptotic(m)
        assert r.evpi >= 0.0

    def test_irreparable_covariance_raises(self):
        from nbvoi.voi import _repair_psd

        with pytest.raises(InputError):
            _repair_psd(1e-4, 1e-4, 3e-4)

    def test_psd_repair_is_elementwise(self):
        """Stacked covariances give each matrix's own result: PSD ones come
        back unchanged, a rounding breach is rebuilt, a large one raises."""
        from nbvoi.voi import _repair_psd

        v = np.array([1e-4, 1e-4, 4e-4, 0.0, 2e-4])
        a = np.array([1e-4, 1e-4, 1e-4, 3e-4, 2e-4])
        c = np.array([1e-4 + 1e-12, 5e-5, -2e-4, 0.0, 2e-4])
        stacked = _repair_psd(v, a, c)
        for i in range(v.size):
            one = _repair_psd(v[i], a[i], c[i])
            for got, ref in zip(stacked, one):
                assert got[i:i + 1].tobytes() == ref.tobytes()
        assert (stacked[0][0], stacked[1][0], stacked[2][0]) != (v[0], a[0], c[0])  # rebuilt
        for i in (1, 2, 3):
            assert (stacked[0][i], stacked[1][i], stacked[2][i]) == (v[i], a[i], c[i])
        with pytest.raises(InputError):
            _repair_psd(np.append(v, 1e-4), np.append(a, 1e-4), np.append(c, 3e-4))

    def test_pre_clamp_floor(self):
        rng = np.random.default_rng(4)
        for _ in range(100):
            mm, ma = rng.uniform(-0.05, 0.1, 2)
            v1, v2 = rng.uniform(0, 1e-3, 2)
            rho = float(rng.uniform(-1, 1))
            cov = rho * math.sqrt(v1 * v2)
            m = MomentSet(mean_model=mm, mean_all=ma, var_model=v1, var_all=v2, cov=cov)
            r = evpi_asymptotic(m)
            assert r.enb_perfect - r.enb_current >= -1e-10


class TestRelativeEvpi:
    def test_case_study_arithmetic(self):
        """0.0025 / 0.0020 = 1.25, i.e. 25% extra attainable efficiency."""
        assert _relative_evpi(0.0699, 0.0694, 0.0674) == pytest.approx(1.25, rel=1e-9)

    def test_no_uncertainty_gives_one(self):
        assert _relative_evpi(0.0694, 0.0694, 0.0674) == pytest.approx(1.0, rel=1e-12)

    def test_undefined_when_model_not_best(self):
        assert np.isnan(_relative_evpi(0.08, 0.05, 0.07))
        assert np.isnan(_relative_evpi(0.08, -0.01, -0.02))  # treat-none best
        assert np.isnan(_relative_evpi(0.08, 0.05, 0.05))    # tie, zero denominator


class TestEvpiThresholdSweep:
    def _sample(self, n=2000, seed=0):
        dgm = LogisticDgm(intercept=-1.55, slopes=(0.77,))
        return generate_synthetic(dgm, n, substream(seed, 2))

    @pytest.mark.filterwarnings("ignore::nbvoi.SmallEffectiveSampleWarning")
    def test_treat_none_certain_gives_zero_for_all_methods(self):
        rng = substream(5, 2)
        y = (rng.random(200) < 0.05).astype(int)
        risks = rng.random(200) * 0.3  # nobody reaches z = 0.5
        s = ValidationSample(y, risks)
        rows = evpi_threshold_sweep(s, (Threshold(0.5),), n_reps=2000, seed=11)
        for _, r in rows:
            assert r.best_strategy == "treat_none"
            assert r.evpi <= 1e-15

    def test_methods_agree_on_moderate_sample(self):
        s = self._sample()
        ts = make_thresholds([0.1, 0.2, 0.3])
        rows = evpi_threshold_sweep(s, ts, n_reps=2000, seed=3)
        by = {(t.z, r.method): r for t, r in rows}
        for z in (0.1, 0.2, 0.3):
            b = by[(z, "bayesian_bootstrap")]
            o = by[(z, "ordinary_bootstrap")]
            a = by[(z, "asymptotic")]
            tol_bo = max(3 * math.hypot(b.mc_se, o.mc_se), 2e-4)
            assert abs(b.evpi - o.evpi) <= tol_bo
            assert abs(b.evpi - a.evpi) <= max(3 * b.mc_se, 2e-4)
            assert abs(o.evpi - a.evpi) <= max(3 * o.mc_se, 2e-4)

    def test_asymptotic_and_bootstrap_p_useful_agree(self):
        s = self._sample(seed=9)
        rows = evpi_threshold_sweep(s, (T02,), n_reps=4000, seed=5)
        by = {r.method: r for _, r in rows}
        assert abs(by["bayesian_bootstrap"].p_useful - by["asymptotic"].p_useful) < 0.05
        assert abs(by["ordinary_bootstrap"].p_useful - by["asymptotic"].p_useful) < 0.05

    def test_fixed_seed_identical_tables(self):
        s = self._sample(n=300, seed=1)
        ts = make_thresholds([0.1, 0.2])
        r1 = evpi_threshold_sweep(s, ts, n_reps=500, seed=8)
        r2 = evpi_threshold_sweep(s, ts, n_reps=500, seed=8)
        assert [(t.z, r.method, r.evpi, r.p_useful) for t, r in r1] == \
               [(t.z, r.method, r.evpi, r.p_useful) for t, r in r2]

    def test_warns_on_thin_threshold_side(self):
        s = ValidationSample([1, 0] * 15, [0.5] * 30)
        with pytest.warns(SmallEffectiveSampleWarning):
            evpi_threshold_sweep(s, (Threshold(0.9, max_z=0.99),), n_reps=50, seed=0)

    def test_one_warning_names_every_thin_threshold(self):
        """60 rows with risks spread over (0, 1): 0.1 and 0.95 leave fewer
        than 20 rows on one side, 0.5 does not."""
        s = ValidationSample([1, 0] * 30, np.linspace(0.01, 0.99, 60))
        ts = make_thresholds([0.1, 0.5, 0.95])
        with warnings.catch_warnings(record=True) as caught:
            warnings.simplefilter("always")
            evpi_threshold_sweep(s, ts, methods=("asymptotic", "ordinary"), n_reps=50, seed=0)
        thin = [w for w in caught if issubclass(w.category, SmallEffectiveSampleWarning)]
        assert len(thin) == 1
        assert "threshold(s) 0.1, 0.95;" in str(thin[0].message)

    def test_rejects_unknown_method(self):
        s = self._sample(n=100)
        with pytest.raises(InputError):
            evpi_threshold_sweep(s, (T02,), methods=("jackknife",), seed=0)
        with pytest.raises(InputError, match="no EVPI method"):
            evpi_threshold_sweep(s, (T02,), methods=(), seed=0)

    def test_rejects_a_string_of_methods(self):
        """Not read as the methods 'a', 's', 'y', ..."""
        with pytest.raises(InputError, match="'methods' must be a list.*'asymptotic'"):
            evpi_threshold_sweep(self._sample(n=100), (T02,), methods="asymptotic", seed=0)

    @pytest.mark.filterwarnings("ignore::nbvoi.SmallEffectiveSampleWarning")
    def test_evpi_nonnegative_on_randomized_small_samples(self):
        rng = np.random.default_rng(50)
        for k in range(60):
            n = int(rng.integers(10, 200))
            prev = float(rng.uniform(0.05, 0.9))
            y = (rng.random(n) < prev).astype(int)
            risks = rng.random(n)
            s = ValidationSample(y, risks)
            z = float(rng.uniform(0.02, 0.9))
            rows = evpi_threshold_sweep(s, (Threshold(z, max_z=0.99),),
                                        n_reps=300, seed=(60, k))
            for _, r in rows:
                assert r.evpi >= 0.0
                floor = 1e-12 + (r.mc_se if r.mc_se is not None else 1e-10)
                assert r.enb_perfect - r.enb_current >= -floor


class TestPopulationScaled:
    def test_case_arithmetic_exact(self):
        tp, fp = population_scaled(0.0005, 800_000, Threshold(0.02))
        assert tp == 400.0
        assert fp == 19600.0

    def test_rejects_nonpositive_multiplier(self):
        with pytest.raises(InputError):
            population_scaled(0.001, 0, T02)


DGM = LogisticDgm(intercept=-1.55, slopes=(0.77,))


@pytest.mark.parametrize("analysis", [
    lambda s, grid: evpi_threshold_sweep(s, grid, methods=("ordinary", "asymptotic"),
                                         n_reps=50, seed=4),
    lambda s, grid: bootstrap_nb_draws_grid(s, grid, n_reps=50, method="ordinary",
                                            seed=4).tolist(),
    lambda s, grid: decision_curve(s, grid, n_boot=50, seed=4).to_records(),
    lambda s, grid: synthetic_sweep(DGM, SweepConfig(sizes=(200,), thresholds=grid, n_sims=1,
                                                     n_reps=50, seed=4)).rows,
], ids=["evpi_threshold_sweep", "bootstrap_nb_draws_grid", "decision_curve", "SweepConfig"])
def test_every_grid_entry_point_takes_the_grid_of_make_thresholds(analysis):
    """An unsorted, duplicate or empty grid is refused, of floats or of
    thresholds alike, and a float grid gives the rows of its threshold twin."""
    s = generate_synthetic(DGM, 300, substream(2, 2))
    for bad in ([0.3, 0.1], [0.1, 0.3, 0.3], []):
        for grid in (bad, [Threshold(z) for z in bad]):
            with pytest.raises(InputError, match="threshold grid must be"):
                analysis(s, grid)
    assert analysis(s, [0.1, 0.3]) == analysis(s, make_thresholds([0.1, 0.3]))
