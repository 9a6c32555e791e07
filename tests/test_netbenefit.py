"""Net benefit estimators, thresholds, and decision curves."""

import dataclasses
import pickle
import tracemalloc

import numpy as np
import pytest

from nbvoi import (
    InputError,
    Threshold,
    ValidationSample,
    WeightVector,
    decision_curve,
    generate_synthetic,
    LogisticDgm,
    make_thresholds,
    nb_all,
    nb_model,
    substream,
    true_nb_of_dgm,
    weighted_nb,
)
from nbvoi.netbenefit import _CellTable, default_grid
from nbvoi import resample
from nbvoi.resample import BAND_WINDOW, BLOCK_REPS, _quantile_ranks, bootstrap_nb_draws_grid

# Shared hand-worked example: flags rows 0, 1, 4 at z = 0.2, giving
# 1 TP and 2 FP -> nb_model = (1 - 2 * 0.25) / 5 = 0.1, nb_all = 0.25.
HAND_Y = [1, 0, 1, 0, 0]
HAND_P = [0.9, 0.8, 0.1, 0.05, 0.5]


class TestThreshold:
    def test_harm_weight(self):
        assert Threshold(0.2).harm_weight == pytest.approx(0.25, rel=1e-15)
        assert Threshold(0.5).harm_weight == pytest.approx(1.0, rel=1e-15)

    @pytest.mark.parametrize("z", [0.0, 1.0, -0.1, 1.3])
    def test_rejects_outside_unit_interval(self, z):
        with pytest.raises(InputError):
            Threshold(z)

    def test_rejects_above_default_cap(self):
        with pytest.raises(InputError):
            Threshold(0.99)
        with pytest.raises(InputError):
            Threshold(0.995)

    def test_cap_is_configurable(self):
        assert Threshold(0.995, max_z=0.999).z == 0.995

    @pytest.mark.parametrize("z, max_z, named", [
        ("0.2", 0.99, "threshold"), (True, 0.99, "threshold"), (None, 0.99, "threshold"),
        (0.2, None, "max_z"), (0.2, True, "max_z"), (0.2, "0.5", "max_z"),
    ])
    def test_non_number_is_an_input_error_naming_it(self, z, max_z, named):
        with pytest.raises(InputError, match=f"{named} must be a number"):
            Threshold(z, max_z=max_z)

    def test_numbers_are_kept_as_python_floats(self):
        t = Threshold(np.float32(0.25), max_z=np.int64(1))
        assert type(t.z) is float and type(t.max_z) is float
        assert (t.z, t.max_z) == (0.25, 1.0)

    @pytest.mark.parametrize("values, message", [
        ("0.1,0.2", "threshold grid must be a sequence"),
        ("0.2", "threshold grid must be a sequence"),
        (0.2, "threshold grid must be a sequence"),
        (None, "threshold grid must be a sequence"),
        (["0.1", 0.2], "threshold must be a number"),
    ], ids=["string_list", "string", "number", "none", "string_entry"])
    def test_grid_must_be_an_iterable_of_numbers_not_a_string(self, values, message):
        with pytest.raises(InputError, match=message):
            make_thresholds(values)

    def test_grid_must_increase(self):
        with pytest.raises(InputError):
            make_thresholds([0.1, 0.1, 0.2])
        with pytest.raises(InputError):
            make_thresholds([])

    def test_default_grid_range(self):
        grid = default_grid()
        assert len(grid) == 200
        assert grid[0].z == pytest.approx(0.001)
        assert grid[-1].z == pytest.approx(0.2)
        zs = [t.z for t in grid]
        assert all(b > a for a, b in zip(zs, zs[1:]))


class TestValidationSample:
    def test_basic_properties(self):
        s = ValidationSample(HAND_Y, HAND_P)
        assert s.n == 5
        assert s.n_events == 2
        assert s.prevalence == pytest.approx(0.4)

    def test_rejects_length_mismatch(self):
        with pytest.raises(InputError):
            ValidationSample([1, 0], [0.5])

    def test_rejects_nonbinary_outcomes(self):
        with pytest.raises(InputError):
            ValidationSample([1, 2], [0.5, 0.5])

    @pytest.mark.parametrize("outcomes, risks", [
        pytest.param([[1, 0]], [0.5, 0.5], id="outcomes"),
        pytest.param([1, 0], [[0.5, 0.5]], id="risks"),
    ])
    def test_rejects_two_dimensional_input(self, outcomes, risks):
        with pytest.raises(InputError, match="one-dimensional"):
            ValidationSample(outcomes, risks)

    @pytest.mark.parametrize("outcomes", [
        pytest.param([0, 1, 1], id="int"),
        pytest.param([0.0, 1.0], id="float"),
        pytest.param([-0.0, 1.0], id="negative_zero"),
        pytest.param([True, False], id="bool"),
        pytest.param(np.array([0, 1], dtype=np.uint8), id="uint8"),
        pytest.param(np.array([0, 1], dtype=np.int8), id="int8"),
        pytest.param(np.array([0, 1], dtype=np.float16), id="float16"),
        pytest.param([0j, 1 + 0j], id="complex"),
        pytest.param([0j, 1j], id="complex_imaginary"),
        pytest.param(np.array([0, 1], dtype=object), id="object"),
        pytest.param(np.array([0.0, True], dtype=object), id="object_mixed"),
        pytest.param([0, None], id="none"),
        pytest.param(["0", "1"], id="str"),
        pytest.param(np.array(["0", 1], dtype=object), id="object_str"),
        pytest.param([b"0", b"1"], id="bytes"),
        pytest.param([0.0, np.nan], id="nan"),
        pytest.param([0, 2], id="two"),
        pytest.param([0.5, 1.0], id="half"),
        pytest.param(np.array([-1, 0], dtype=np.int8), id="minus_one"),
        pytest.param(np.array([0, 1], dtype="timedelta64[s]"), id="timedelta"),
        pytest.param(np.array(["2020-01-01"] * 2, dtype="datetime64[D]"), id="datetime"),
    ])
    def test_outcome_check_accepts_what_isin_accepts(self, outcomes):
        """Real outcomes pass the 0/1 check exactly where
        ``np.isin(y, (0, 1))`` holds, without a warning; complex, timedelta
        and datetime outcomes are refused by their dtype, before the check,
        whatever values they hold."""
        y = np.asarray(outcomes)
        if y.dtype.kind in "cmM":
            with pytest.raises(InputError) as info:
                ValidationSample(y, np.full(y.shape, 0.5))
            assert str(info.value) == f"outcomes must be real numbers, got {y.dtype} values"
            return
        try:
            ValidationSample(y, np.full(y.shape, 0.5))
        except InputError as exc:
            assert str(exc) == "outcomes must be binary 0/1"
            accepted = False
        else:
            accepted = True
        assert accepted == np.isin(y, (0, 1)).all()

    @pytest.mark.parametrize("outcomes, risks, message", [
        pytest.param([0, 1], [0.5 + 0j, 0.5 + 0j], "risks must be real numbers, got complex128 values",
                     id="complex_risks"),
        pytest.param([0, 1], [0.5, 0.5j], "risks must be real numbers, got complex128 values",
                     id="imaginary_risk"),
        pytest.param([0, 1], np.array([0, 1], dtype="timedelta64[s]"),
                     "risks must be real numbers, got timedelta64[s] values", id="timedelta_risks"),
        pytest.param([0, 1], np.array([0.5, 0.5j], dtype=object), "risks must be real numbers",
                     id="object_complex_risks"),
        pytest.param([0, 1], ["0.5", "x"], "risks must be real numbers", id="str_risks"),
        pytest.param(np.array([0j, 1], dtype=object), [0.5, 0.5], "outcomes must be real numbers",
                     id="object_complex_outcomes"),
    ])
    def test_refuses_non_real_columns(self, outcomes, risks, message):
        """A complex, timedelta or datetime column, or an object or string
        one that does not convert to real numbers, is an ``InputError``
        naming the column, not a cast that warns or a bare ``TypeError``."""
        with pytest.raises(InputError) as info:
            ValidationSample(outcomes, risks)
        assert str(info.value) == message

    @pytest.mark.parametrize("dtype", [bool, np.int8, np.int64, np.uint8, np.uint64, np.float16,
                                       np.float32, float])
    def test_takes_real_outcomes_and_risks_of_any_width(self, dtype):
        s = ValidationSample(np.array([0, 1, 1], dtype=dtype), np.array([0, 1, 0], dtype=dtype))
        assert s.outcomes.tolist() == [0, 1, 1] and s.risks.tolist() == [0.0, 1.0, 0.0]

    def test_rejects_risks_outside_unit_interval(self):
        with pytest.raises(InputError):
            ValidationSample([1, 0], [0.5, 1.2])
        with pytest.raises(InputError):
            ValidationSample([1, 0], [0.5, np.nan])

    def test_rejects_empty(self):
        with pytest.raises(InputError):
            ValidationSample([], [])

    def test_immutable(self):
        s = ValidationSample(HAND_Y, HAND_P)
        with pytest.raises(ValueError):
            s.risks[0] = 0.3
        with pytest.raises(AttributeError):
            s.risks = np.array([0.1])

    def test_pickle_round_trip_keeps_arrays_read_only(self):
        """Process-pool sweeps send the dataset to their workers by pickle."""
        s = ValidationSample(HAND_Y, HAND_P)
        back = pickle.loads(pickle.dumps(s))
        assert np.array_equal(back.outcomes, s.outcomes) and back.outcomes.dtype == np.int64
        assert back.risks.tobytes() == s.risks.tobytes()
        assert not back.outcomes.flags.writeable and not back.risks.flags.writeable
        with pytest.raises(ValueError):
            back.risks[0] = 0.3

    def test_degenerate_single_class_is_legal(self):
        all0 = ValidationSample([0, 0, 0], [0.1, 0.5, 0.9])
        all1 = ValidationSample([1, 1, 1], [0.1, 0.5, 0.9])
        t = Threshold(0.3)
        assert nb_model(all0, t) <= 0.0
        assert nb_all(all1, t) == 1.0


class TestNbModel:
    def test_hand_example(self):
        s = ValidationSample(HAND_Y, HAND_P)
        assert nb_model(s, Threshold(0.2)) == pytest.approx(0.1, rel=1e-14)

    def test_no_risk_reaches_threshold(self):
        s = ValidationSample(HAND_Y, HAND_P)
        assert nb_model(s, Threshold(0.95, max_z=0.999)) == 0.0

    def test_perfect_predictions_give_prevalence(self):
        s = ValidationSample([1, 0, 0, 1], [1.0, 0.0, 0.0, 1.0])
        assert nb_model(s, Threshold(0.5)) == pytest.approx(0.5, rel=1e-14)

    def test_tie_at_threshold_counts_as_positive(self):
        s = ValidationSample([1], [0.2])
        assert nb_model(s, Threshold(0.2)) == 1.0

    def test_permutation_invariance(self):
        rng = np.random.default_rng(42)
        y = rng.integers(0, 2, 50)
        p = rng.random(50)
        s = ValidationSample(y, p)
        perm = rng.permutation(50)
        sp = ValidationSample(y[perm], p[perm])
        for z in (0.1, 0.37, 0.8):
            assert nb_model(sp, Threshold(z)) == pytest.approx(
                nb_model(s, Threshold(z)), rel=1e-12, abs=1e-15
            )

    def test_bounded_by_prevalence(self):
        rng = np.random.default_rng(3)
        for _ in range(50):
            n = int(rng.integers(1, 40))
            s = ValidationSample(rng.integers(0, 2, n), rng.random(n))
            z = float(rng.uniform(0.01, 0.95))
            assert nb_model(s, Threshold(z, max_z=0.99)) <= s.prevalence + 1e-12


class TestNbAll:
    def test_hand_example(self):
        s = ValidationSample(HAND_Y, HAND_P)
        assert nb_all(s, Threshold(0.2)) == pytest.approx(0.25, rel=1e-14)

    def test_all_events_give_one(self):
        s = ValidationSample([1, 1, 1], [0.2, 0.5, 0.9])
        for z in (0.05, 0.4, 0.9):
            assert nb_all(s, Threshold(z)) == 1.0

    def test_zero_at_threshold_equal_to_prevalence(self):
        s = ValidationSample([1, 0, 1, 0, 0], [0.5] * 5)  # prevalence 0.4
        assert nb_all(s, Threshold(0.4)) == pytest.approx(0.0, abs=1e-15)

    def test_treat_all_is_model_with_unit_risks(self):
        """Treat-all is the model that flags everyone (exact: same kernel)."""
        rng = np.random.default_rng(11)
        y = rng.integers(0, 2, 30)
        s = ValidationSample(y, rng.random(30))
        s_ones = ValidationSample(y, np.ones(30))
        for z in (0.05, 0.3, 0.77):
            t = Threshold(z)
            assert nb_model(s_ones, t) == nb_all(s, t)

    def test_decreasing_in_threshold(self):
        rng = np.random.default_rng(5)
        s = ValidationSample(rng.integers(0, 2, 60), rng.random(60))
        zs = np.linspace(0.02, 0.9, 25)
        vals = [nb_all(s, Threshold(z)) for z in zs]
        assert all(b <= a + 1e-15 for a, b in zip(vals, vals[1:]))


class TestWeightedNb:
    def test_uniform_counts_equal_plain_exactly(self):
        s = ValidationSample(HAND_Y, HAND_P)
        t = Threshold(0.2)
        wv = WeightVector(weights=np.full(5, 0.2), counts=np.ones(5, int))
        m, a = weighted_nb(s, wv, t)
        assert m == nb_model(s, t)
        assert a == nb_all(s, t)

    def test_uniform_float_weights_match_plain(self):
        s = ValidationSample(HAND_Y, HAND_P)
        t = Threshold(0.2)
        m, a = weighted_nb(s, np.full(5, 0.2), t)
        assert m == pytest.approx(nb_model(s, t), rel=1e-14)
        assert a == pytest.approx(nb_all(s, t), rel=1e-14)

    def test_point_mass_on_true_positive(self):
        s = ValidationSample([1, 0], [0.9, 0.1])
        m, a = weighted_nb(s, np.array([1.0, 0.0]), Threshold(0.5))
        assert (m, a) == (1.0, 1.0)

    def test_hand_example(self):
        s = ValidationSample([1, 0], [0.9, 0.9])
        m, a = weighted_nb(s, np.array([0.75, 0.25]), Threshold(0.5))
        assert m == pytest.approx(0.5, rel=1e-14)
        assert a == pytest.approx(0.5, rel=1e-14)

    def test_rejects_mismatched_length(self):
        s = ValidationSample(HAND_Y, HAND_P)
        with pytest.raises(InputError):
            weighted_nb(s, np.array([0.5, 0.5]), Threshold(0.2))

    def test_rejects_bad_weights(self):
        s = ValidationSample([1, 0], [0.9, 0.1])
        with pytest.raises(InputError):
            weighted_nb(s, np.array([0.9, -0.1]), Threshold(0.5))
        with pytest.raises(InputError):
            weighted_nb(s, np.array([0.9, 0.3]), Threshold(0.5))

    @pytest.mark.parametrize("excess, accepted", [(1e-10, True), (-1e-10, True),
                                                  (1e-7, False), (-1e-7, False)])
    def test_one_sum_tolerance_for_bare_weights_and_weight_vectors(self, excess, accepted):
        """A sum between the two tolerances the checks once had (1e-12 and
        1e-8) is treated alike, and so is one beyond both."""
        s = ValidationSample(HAND_Y, HAND_P)
        w = np.full(5, 0.2) * (1.0 + excess)
        outcomes = []
        for check in (lambda: WeightVector(weights=w),
                      lambda: weighted_nb(s, w, Threshold(0.2))):
            try:
                check()
                outcomes.append(True)
            except InputError:
                outcomes.append(False)
        assert outcomes == [accepted, accepted]


def _all_compositions(total, cells):
    if cells == 1:
        yield (total,)
        return
    for first in range(total + 1):
        for rest in _all_compositions(total - first, cells - 1):
            yield (first,) + rest


class TestResampleWeightEquivalence:
    """Multinomial weight vectors must reproduce the NB of the materialized
    resampled dataset exactly (brute force over all count vectors)."""

    @pytest.mark.parametrize("n", [1, 2, 3, 4, 5, 6, 7, 8])
    def test_exhaustive_small_n(self, n):
        rng = np.random.default_rng(100 + n)
        y = rng.integers(0, 2, n)
        p = rng.random(n)
        s = ValidationSample(y, p)
        t = Threshold(0.37)
        for counts in _all_compositions(n, n):
            counts = np.array(counts)
            wv = WeightVector(weights=counts / n, counts=counts)
            got_m, got_a = weighted_nb(s, wv, t)
            rep = np.repeat(np.arange(n), counts)
            if rep.size == 0:
                continue
            resampled = ValidationSample(y[rep], p[rep])
            # weighting by k/n averages over n cells; the materialized sample
            # has sum(counts) = n rows, so the two denominators agree
            assert got_m == nb_model(resampled, t)
            assert got_a == nb_all(resampled, t)


class TestDecisionCurve:
    def _sample(self, n=300, seed=0):
        dgm = LogisticDgm(intercept=-1.55, slopes=(0.77,))
        return generate_synthetic(dgm, n, substream(seed, 2))

    def test_no_bootstrap_means_no_ci(self):
        s = self._sample()
        curve = decision_curve(s, make_thresholds([0.05, 0.1, 0.2]), n_boot=0)
        assert not curve.has_ci
        assert curve.model_ci is None

    def test_point_estimates_match_direct_computation(self):
        s = self._sample()
        ts = make_thresholds([0.05, 0.1, 0.2])
        curve = decision_curve(s, ts, n_boot=50, seed=4)
        for i, t in enumerate(ts):
            assert curve.nb_model[i] == nb_model(s, t)
            assert curve.nb_all[i] == nb_all(s, t)

    def test_perfect_predictions_row_is_prevalence(self):
        s = ValidationSample([1, 0, 0, 1], [1.0, 0.0, 0.0, 1.0])
        ts = make_thresholds([0.2, 0.5, 0.8])
        curve = decision_curve(s, ts, n_boot=0)
        np.testing.assert_allclose(curve.nb_model, s.prevalence, rtol=1e-14)

    def test_fixed_seed_bit_identical(self):
        s = self._sample()
        ts = make_thresholds([0.05, 0.1, 0.2])
        c1 = decision_curve(s, ts, n_boot=200, method="bayesian", seed=9)
        c2 = decision_curve(s, ts, n_boot=200, method="bayesian", seed=9)
        assert np.array_equal(c1.model_ci, c2.model_ci)
        assert np.array_equal(c1.all_ci, c2.all_ci)
        assert np.array_equal(c1.nb_model, c2.nb_model)

    def test_bands_keep_the_tails_not_the_draws(self):
        """The bands keep, per threshold, only the replicates' model NBs
        that the quantiles can read, and of each replicate its event and
        non-event masses (16 bytes), from which the treat-all band is read.
        On 20 thresholds, where the per-block temporaries weigh most, the
        call peaks below the bytes of the (N, T, 2) draws; on the default
        200-threshold grid below 0.22 times them, and at 2 x 10^4
        replicates below 0.13 times, where the (T, N) model NBs alone are
        0.5 times.  On one threshold at 10^5 replicates the held masses are
        as many bytes as the draws, and the call peaks below 1.5 times
        them.  The bands are still the percentiles of the draws."""
        s = self._sample(n=500)
        probs = [0.5 * (1 - 0.95), 0.5 * (1 + 0.95)]
        for ts, n_boot, bound in ((make_thresholds(np.arange(1, 21) / 100), 10_000, 1.0),
                                  (default_grid(), 10_000, 0.22), (default_grid(), 20_000, 0.13),
                                  (make_thresholds([0.2]), 100_000, 1.5)):
            tracemalloc.start()
            try:
                curve = decision_curve(s, ts, n_boot=n_boot, method="bayesian", seed=6)
                _, peak = tracemalloc.get_traced_memory()
            finally:
                tracemalloc.stop()
            draws = bootstrap_nb_draws_grid(s, ts, n_reps=n_boot, method="bayesian", seed=6)
            assert peak < bound * draws.nbytes, (len(ts), n_boot, peak / draws.nbytes)
            for k, band in enumerate((curve.model_ci, curve.all_ci)):
                assert np.array_equal(band, np.quantile(draws[:, :, k], probs, axis=0).T)
            del draws

    @staticmethod
    def _first_cut(probs):
        """The fewest replicates that the band buffer (their two tails and
        ``BAND_WINDOW`` more) does not hold, so that ``_table_bands`` cuts;
        where the tails meet, none, and this gives 2 x ``BAND_WINDOW``."""
        for n in range(2, 4 * BAND_WINDOW):
            lo, hi, _ = _quantile_ranks(n, probs)
            ranks = np.concatenate((lo, hi))
            lower = ranks + 1 <= n - ranks
            tails = (ranks + 1)[lower].max(initial=1) + (n - ranks)[~lower].max(initial=1)
            if n > tails + BAND_WINDOW:
                return n
        return 2 * BAND_WINDOW

    @pytest.mark.parametrize("method", ["bayesian", "ordinary"])
    @pytest.mark.parametrize("ci_level", [0.01, 0.5, 0.95, 0.99])
    @pytest.mark.parametrize("n_boot", [1, 7, 255, 256, 257, 1000, "cut-1", "cut", "cut+1"])
    def test_bands_are_the_draw_percentiles_bit_for_bit(self, n_boot, ci_level, method):
        """Around the 256-replicate block edge, on both sides of the first
        cut to the tails ("cut" is the fewest replicates that are cut), and
        at a 1 % level whose tails meet, on one threshold and on a grid
        whose last threshold no risk reaches (degenerate, all ties), the
        bands equal numpy's percentiles of ``bootstrap_nb_draws_grid``
        exactly."""
        probs = [0.5 * (1 - ci_level), 0.5 * (1 + ci_level)]
        if isinstance(n_boot, str):
            n_boot = self._first_cut(probs) + int(n_boot[3:] or 0)
        rng = np.random.default_rng(n_boot)
        s = ValidationSample(rng.integers(0, 2, 120), 0.9 * rng.random(120))
        for grid in ([0.2], [0.05, 0.1, 0.3, 0.6, 0.95]):
            ts = make_thresholds(grid)
            curve = decision_curve(s, ts, n_boot=n_boot, ci_level=ci_level, method=method, seed=3)
            draws = bootstrap_nb_draws_grid(s, ts, n_reps=n_boot, method=method, seed=3)
            qs = np.quantile(draws, probs, axis=0)
            assert np.array_equal(curve.model_ci, qs[:, :, 0].T)
            assert np.array_equal(curve.all_ci, qs[:, :, 1].T)
        assert curve.degenerate.tolist() == [False] * 4 + [True]

    @pytest.mark.parametrize("method", ["bayesian", "ordinary"])
    def test_bands_are_exact_over_many_cuts(self, monkeypatch, method):
        """With the window at its least, one block, 3,000 replicates are cut
        to their tails a dozen times or more; the bands are still numpy's
        percentiles of the draws, bit for bit."""
        monkeypatch.setattr(resample, "BAND_WINDOW", BLOCK_REPS)
        s = self._sample(n=200)
        ts = make_thresholds([0.02, 0.1, 0.2, 0.5, 0.9])
        for ci_level in (0.5, 0.95):
            probs = [0.5 * (1 - ci_level), 0.5 * (1 + ci_level)]
            curve = decision_curve(s, ts, n_boot=3000, ci_level=ci_level, method=method, seed=8)
            draws = bootstrap_nb_draws_grid(s, ts, n_reps=3000, method=method, seed=8)
            qs = np.quantile(draws, probs, axis=0)
            assert np.array_equal(curve.model_ci, qs[:, :, 0].T)
            assert np.array_equal(curve.all_ci, qs[:, :, 1].T)

    @pytest.mark.parametrize("method", ["bayesian", "ordinary"])
    def test_treat_all_band_is_exact_across_near_tied_event_masses(self, monkeypatch, method):
        """The treat-all band reads its order statistics from the event
        masses; where two replicates' event masses are equal or a few ulp
        apart, their non-event masses decide the order, and it reverses
        across the grid.  Replicates drawn in near-tied pairs, some twice,
        in shuffled order, still give numpy's percentiles of the draws, bit
        for bit."""
        s = ValidationSample([1] * 32 + [0] * 32, [0.6, 0.03] * 32)
        ts = make_thresholds([0.01, 0.05, 0.2, 0.5, 0.8])
        table = _CellTable(s.outcomes, s.risks, ts)
        pairs = 300
        e_a = 0.13 + 0.11 * np.arange(pairs) / pairs
        ulps = np.arange(pairs) % 4  # event masses equal or 1-3 ulp apart
        e_b = e_a.copy()
        for i in range(3):
            e_b = np.where(ulps > i, np.nextafter(e_b, 1.0), e_b)
        ne_b = 1.0 - e_b
        # about c = 0.15 times the event-mass gap, so that b leads a below
        # z = 0.13 and trails it above; 3 ulp where the event masses tie
        steps = np.where(ulps > 0, np.rint(np.spacing(e_a) * ulps / (0.15 * np.spacing(ne_b))), 3)
        ne_a = ne_b.copy()
        for i in range(int(steps.max())):
            ne_a = np.where(steps > i, np.nextafter(ne_a, 0.0), ne_a)
        copies = slice(0, pairs, 3)  # a second draw of every third a
        events = np.concatenate((e_a, e_b, e_a[copies]))
        non_events = np.concatenate((ne_a, ne_b, ne_a[copies]))
        n_boot = events.size
        order = np.random.default_rng(5).permutation(n_boot)
        events, non_events = events[order], non_events[order]
        # Two cells per outcome, split so that the cumulative sums are exact.
        outcome, top = table.cell_labels // table.width, table.cell_labels % table.width
        top = top == top.max()
        masses = np.empty((n_boot, table.cell_counts.size))
        for k in range(masses.shape[1]):
            whole, head = (events, 0.125) if outcome[k] else (non_events, 0.5)
            masses[:, k] = head if top[k] else whole - head
        scale = 1.0 if method == "bayesian" else float(s.n)  # 64: exact
        masses *= scale
        _, _, got_e, got_ne = table.sums(masses)
        assert np.array_equal(got_e, scale * events) and np.array_equal(got_ne, scale * non_events)

        def block_masses(counts, n_reps, method, seed, start):
            return masses[start:min(n_reps, start + resample._block_rows(counts.size))]

        monkeypatch.setattr(resample, "_block_masses", block_masses)
        draws = bootstrap_nb_draws_grid(s, ts, n_reps=n_boot, method=method, seed=0)
        at = np.argsort(order)  # where each a, b and copy ended up
        gap = draws[at[pairs:2 * pairs], :, 1] - draws[at[:pairs], :, 1]
        assert (gap[:, 0] > 0).sum() > 200 and (gap[:, -1] < 0).all()  # b leads, then trails
        for ci_level in (0.5, 0.9, 0.95, 0.99):
            probs = [0.5 * (1 - ci_level), 0.5 * (1 + ci_level)]
            curve = decision_curve(s, ts, n_boot=n_boot, ci_level=ci_level, method=method)
            qs = np.quantile(draws, probs, axis=0)
            assert np.array_equal(curve.model_ci, qs[:, :, 0].T)
            assert np.array_equal(curve.all_ci, qs[:, :, 1].T)

    @pytest.mark.parametrize("n_boot", [0, 50])
    def test_rejects_an_unknown_method_even_without_bands(self, n_boot):
        with pytest.raises(InputError, match="unknown bootstrap method 'bogus'"):
            decision_curve(self._sample(50), [0.1], n_boot=n_boot, method="bogus")

    @pytest.mark.parametrize("n_boot", [True, 2.5, "100", None])
    def test_rejects_a_bool_fraction_or_string_n_boot(self, n_boot):
        with pytest.raises(InputError, match=f"n_boot must be a whole number, got {n_boot!r}"):
            decision_curve(self._sample(50), [0.1], n_boot=n_boot)

    @pytest.mark.parametrize("ci_level", ["0.9", None, True])
    def test_rejects_a_string_none_or_bool_ci_level(self, ci_level):
        with pytest.raises(InputError, match=f"ci_level must be a number, got {ci_level!r}"):
            decision_curve(self._sample(50), [0.1], n_boot=0, ci_level=ci_level)

    @pytest.mark.parametrize("ci_level", [0.0, 1.0, -0.5, 1.5])
    def test_rejects_a_ci_level_outside_the_unit_interval(self, ci_level):
        with pytest.raises(InputError, match=r"ci_level must lie in \(0, 1\)"):
            decision_curve(self._sample(50), [0.1], n_boot=0, ci_level=ci_level)

    def test_rejects_a_negative_n_boot(self):
        with pytest.raises(InputError, match="n_boot must be >= 0"):
            decision_curve(self._sample(50), [0.1], n_boot=-1)

    def test_a_curve_refuses_a_band_with_lower_above_upper(self):
        curve = decision_curve(self._sample(50), [0.1, 0.2], n_boot=40, seed=1)
        for band in ("model_ci", "all_ci"):
            flipped = getattr(curve, band)[:, ::-1].copy()
            flipped[0] = [1.0, 0.0]
            with pytest.raises(InputError, match="lower <= upper"):
                dataclasses.replace(curve, **{band: flipped})

    def test_takes_an_integral_float_n_boot(self):
        s, ts = self._sample(50), [0.1, 0.2]
        curve = decision_curve(s, ts, n_boot=40.0, seed=1)
        assert curve.n_boot == 40 and type(curve.n_boot) is int
        assert np.array_equal(curve.model_ci, decision_curve(s, ts, n_boot=40, seed=1).model_ci)

    def test_bounds_are_ordered(self):
        s = self._sample()
        curve = decision_curve(s, default_grid()[:40], n_boot=300, seed=2)
        assert np.all(curve.model_ci[:, 0] <= curve.model_ci[:, 1])
        assert np.all(curve.all_ci[:, 0] <= curve.all_ci[:, 1])

    def test_degenerate_threshold_flagged_with_zero_width_interval(self):
        s = ValidationSample([1, 0, 1], [0.1, 0.2, 0.15])
        ts = make_thresholds([0.1, 0.5])
        curve = decision_curve(s, ts, n_boot=100, seed=1)
        assert not curve.degenerate[0]
        assert curve.degenerate[1]
        assert curve.model_ci[1, 0] == curve.model_ci[1, 1] == 0.0

    def test_rejects_bad_grid(self):
        s = self._sample(50)
        with pytest.raises(InputError):
            decision_curve(s, [0.2, 0.1], n_boot=0)
        with pytest.raises(InputError):
            decision_curve(s, [0.5, 1.5], n_boot=0)

    def test_coverage_near_nominal(self):
        """Empirical CI coverage of the true NB at desk scale (seeded;
        calibrated point estimate was 0.944 at these settings)."""
        dgm = LogisticDgm(intercept=-1.55, slopes=(0.77,))
        t = Threshold(0.2)
        true_nb = true_nb_of_dgm(dgm, t, 2_000_000, rng=substream(123, 2))
        hits = 0
        n_trials = 200
        for k in range(n_trials):
            samp = generate_synthetic(dgm, 800, substream((78, k), 2))
            curve = decision_curve(samp, (t,), n_boot=400, ci_level=0.95,
                                   method="ordinary", seed=(78, k))
            lo, hi = curve.model_ci[0]
            hits += bool(lo <= true_nb <= hi)
        coverage = hits / n_trials
        # 3 binomial SEs around 0.95 is ~0.046; allow a little extra for
        # small-sample percentile undercoverage
        assert 0.90 <= coverage <= 0.995
