"""Bootstrap weight generators and NB draw matrices."""

import re
import tracemalloc

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st
from scipy.stats import ks_2samp

from nbvoi import (
    InputError,
    LogisticDgm,
    Threshold,
    ValidationSample,
    WeightVector,
    bootstrap_nb_draws,
    evpi_threshold_sweep,
    generate_synthetic,
    make_thresholds,
    moments,
    nb_all,
    nb_model,
    substream,
    true_nb_of_dgm,
    weighted_nb,
)
from nbvoi.netbenefit import _CellTable, default_grid
from nbvoi import resample
from nbvoi.resample import (
    BLOCK_CELLS,
    BLOCK_REPS,
    METHOD_IDS,
    NbDrawMatrix,
    _block_masses,
    _block_rows,
    _lerp,
    _quantile_ranks,
    bootstrap_nb_draws_grid,
    dirichlet_weights,
    dump_draws,
    multinomial_weights,
)


def _mass_blocks(counts, n_reps, method, seed):
    """``(start, masses)`` of each block of replicates, in order."""
    return [(start, _block_masses(counts, n_reps, method, seed, start))
            for start in range(0, n_reps, _block_rows(counts.size))]


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


@pytest.mark.parametrize("make, match", [
    pytest.param(lambda: WeightVector(weights=np.full((2, 2), 0.25)), "non-empty vector",
                 id="weights_2d"),
    pytest.param(lambda: WeightVector(weights=np.empty(0)), "non-empty vector",
                 id="weights_empty"),
    pytest.param(lambda: WeightVector(weights=[1.5, -0.5]), "nonnegative", id="weight_negative"),
    pytest.param(lambda: WeightVector(weights=[0.5, 0.5], counts=[1, 2]), "sum to the sample",
                 id="counts_not_n"),
    pytest.param(lambda: NbDrawMatrix([[0.1, 0.2], [np.nan, 0.2]], method="ordinary", seed=0),
                 "finite", id="draw_nan"),
    pytest.param(lambda: NbDrawMatrix([[0.1, 0.2], [0.3, np.inf]], method="ordinary", seed=0),
                 "finite", id="draw_inf"),
    pytest.param(lambda: NbDrawMatrix([[0.1, 0.2]], method="jackknife", seed=0),
                 "unknown bootstrap method 'jackknife'", id="method_unknown"),
    pytest.param(lambda: NbDrawMatrix([[0.1, 0.2]], method=["bayesian"], seed=0),
                 r"unknown bootstrap method \['bayesian'\]", id="method_list"),
])
def test_weight_vectors_and_draw_matrices_refuse_bad_values(make, match):
    with pytest.raises(InputError, match=match):
        make()


def _toy_sample():
    return ValidationSample([1, 0, 1, 0, 0, 1, 0, 1],
                            [0.9, 0.8, 0.1, 0.05, 0.5, 0.45, 0.3, 0.7])


class TestDrawSizeBound:
    def test_draws_up_to_the_bound_run_and_past_it_are_refused(self, monkeypatch):
        """A small bound stands in for ``MAX_DRAW_BYTES``, so the refused
        case would ask for almost nothing even if the check were missing."""
        s, ts = _toy_sample(), make_thresholds([0.1, 0.2])
        monkeypatch.setattr(resample, "MAX_DRAW_BYTES", 8 * 10 * 2 * 2)
        assert bootstrap_nb_draws_grid(s, ts, n_reps=10).shape == (10, 2, 2)
        with pytest.raises(InputError, match=r"shape \(11, 2, 2\) take 352 bytes"):
            bootstrap_nb_draws_grid(s, ts, n_reps=11)


_DGM = LogisticDgm(intercept=-1.55, slopes=(0.77,))
_SAMPLE = generate_synthetic(_DGM, 300, substream(6, 2))
_COUNTS = {  # entry -> (the count's name, a call with that count)
    "evpi_threshold_sweep": ("n_reps", lambda n: evpi_threshold_sweep(_SAMPLE, [0.2], n_reps=n)),
    "bootstrap_nb_draws_grid": ("n_reps", lambda n: bootstrap_nb_draws_grid(_SAMPLE, [0.2], n)),
    "bootstrap_nb_draws": ("n_reps", lambda n: bootstrap_nb_draws(_SAMPLE, Threshold(0.2), n)),
    "generate_synthetic": ("n", lambda n: generate_synthetic(_DGM, n, substream(6, 3))),
    "true_nb_of_dgm": ("n_mc", lambda n: true_nb_of_dgm(_DGM, Threshold(0.2), n,
                                                        rng=substream(6, 4))),
}


@pytest.mark.parametrize("value", [100.5, "7", True, None])
@pytest.mark.parametrize("entry", sorted(_COUNTS))
def test_a_count_is_a_whole_number(entry, value):
    """A count is an int or an integral float, which runs as that int (its
    repr, counts included, is the int's); a fraction, a string, a bool or
    None is an InputError naming the count, never a TypeError or a run of
    one."""
    name, call = _COUNTS[entry]
    assert repr(call(100.0)) == repr(call(100))
    with pytest.raises(InputError, match=re.escape(f"{name} must be a whole number, "
                                                   f"got {value!r}")):
        call(value)


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
        """Block b has a fixed key and numpy fills it one replicate at a
        time, so a shorter run is the prefix of a longer one, within a
        block and across blocks."""
        s = _toy_sample()
        ts = make_thresholds([0.1, 0.3])
        for method in ("bayesian", "ordinary"):
            for n_long, n_short in ((200, 150), (3 * BLOCK_REPS, BLOCK_REPS + 7)):
                long = bootstrap_nb_draws_grid(s, ts, n_reps=n_long, method=method, seed=5)
                short = bootstrap_nb_draws_grid(s, ts, n_reps=n_short, method=method, seed=5)
                assert np.array_equal(long[:n_short], short)

    def test_rows_recomputable_from_stored_weights(self):
        """Replicate l's cell masses, split equally among each cell's rows,
        are row weights that ``weighted_nb`` audits the row against."""
        s = _toy_sample()
        t = Threshold(0.25)
        mat = bootstrap_nb_draws(s, t, n_reps=100, method="bayesian", seed=11)
        table = _CellTable(s.outcomes, s.risks, (t,))
        counts = table.cell_counts
        inverse = np.searchsorted(table.cell_labels, 2 * s.outcomes + (s.risks >= t.z))
        ((_, masses),) = _mass_blocks(counts, 100, "bayesian", 11)
        for l in (0, 17, 99):
            w = masses[l][inverse] / counts[inverse]
            m, a = weighted_nb(s, w, t)
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
        wy0 = (grid[:, 0, 1] + c0) / (1 + c0)
        wy1 = (grid[:, 1, 1] + c1) / (1 + c1)
        np.testing.assert_allclose(wy0, wy1, rtol=1e-10)

    def test_thresholds_splitting_no_cell_leave_draws_unchanged(self):
        """A threshold with no risk between it and its neighbours, inserted
        in its sorted place, leaves the occupied cells as they were, so every
        draw at the other thresholds is bit-identical."""
        s = _toy_sample()  # risks 0.05 0.1 0.3 0.45 0.5 0.7 0.8 0.9
        zs = [0.2, 0.4]
        for method in ("bayesian", "ordinary"):
            base = bootstrap_nb_draws_grid(s, zs, n_reps=300, method=method, seed=21)
            for extra in (0.35, 0.95, 0.01):
                wider_zs = sorted(zs + [extra])
                wider = bootstrap_nb_draws_grid(s, wider_zs, n_reps=300, method=method,
                                                seed=21)
                kept = [wider_zs.index(z) for z in zs]
                assert np.array_equal(wider[:, kept], base)

    def test_rejects_bad_inputs(self):
        s = _toy_sample()
        with pytest.raises(InputError):
            bootstrap_nb_draws(s, Threshold(0.2), n_reps=0, seed=0)
        with pytest.raises(InputError):
            bootstrap_nb_draws(s, Threshold(0.2), n_reps=10, method="jackknife", seed=0)


def _cell_sample():
    """44 rows in six (outcome, bin) cells of 23, 9, 2, 5, 1 and 4 rows over
    the grid (0.2, 0.5)."""
    layout = [(0, 0.1, 23), (0, 0.3, 9), (0, 0.7, 2), (1, 0.1, 5), (1, 0.3, 1), (1, 0.7, 4)]
    y = np.concatenate([[y] * k for y, _, k in layout])
    p = np.concatenate([[p] * k for _, p, k in layout])
    ts = make_thresholds([0.2, 0.5])
    counts = _CellTable(y, p, ts).cell_counts
    assert counts.tolist() == [23, 9, 2, 5, 1, 4]
    inverse = np.repeat(np.arange(counts.size), counts)  # the rows are in cell order
    return ValidationSample(y, p), ts, inverse, counts


class TestCellBootstrap:
    """The per-cell draws against the per-row weights they aggregate.

    The distributional tests compare two independent samples at a pinned
    seed with two-sample Kolmogorov-Smirnov tests, Bonferroni-corrected to
    a total level of 1e-3.  On discrete (ordinary-bootstrap) values the
    test is conservative, so a correct sampler fails each of them with
    probability at most 1e-3."""

    REPS = 2000

    def _row_cell_sums(self, s, inverse, counts, draw_weights, field):
        """Per-row weights (or resample counts) summed into the cells."""
        rng = substream(41, 9)
        return np.array([
            np.bincount(inverse, weights=getattr(draw_weights(s.n, rng), field),
                        minlength=counts.size)
            for _ in range(self.REPS)
        ])

    def _assert_same_marginals(self, a, b):
        for k in range(a.shape[1]):
            assert ks_2samp(a[:, k], b[:, k]).pvalue > 1e-3 / a.shape[1], k

    def test_gamma_masses_match_summed_dirichlet_weights(self):
        """Summed flat-Dirichlet row weights are Dirichlet(cell counts)."""
        s, _, inverse, counts = _cell_sample()
        cells = np.concatenate([m for _, m in _mass_blocks(counts, self.REPS, "bayesian", 41)])
        rows = self._row_cell_sums(s, inverse, counts, dirichlet_weights, "weights")
        self._assert_same_marginals(cells, rows)

    def test_multinomial_counts_match_summed_resample_counts(self):
        """Summed resample counts are Multinomial(n, cell counts / n)."""
        s, _, inverse, counts = _cell_sample()
        cells = np.concatenate([m for _, m in _mass_blocks(counts, self.REPS, "ordinary", 41)])
        assert (cells.sum(axis=1) == s.n).all()
        rows = self._row_cell_sums(s, inverse, counts, multinomial_weights, "counts")
        self._assert_same_marginals(cells, rows)

    def test_threshold_alone_matches_it_inside_a_200_point_grid(self):
        """The cells depend on the grid, the distribution of the draws at a
        threshold does not (independent seeds, 4 comparisons)."""
        s = generate_synthetic(LogisticDgm(-1.55, (0.77,)), 300, substream(43, 2))
        grid = default_grid()
        assert grid[99].z == 0.1
        for method in ("bayesian", "ordinary"):
            alone = bootstrap_nb_draws(s, grid[99], n_reps=4000, method=method, seed=1).draws
            inside = bootstrap_nb_draws_grid(s, grid, n_reps=4000, method=method,
                                             seed=2)[:, 99]
            for col in (0, 1):
                assert ks_2samp(alone[:, col], inside[:, col]).pvalue > 1e-3 / 4

    def test_block_b_is_drawn_from_substream_b(self):
        counts = np.array([3, 1, 4])
        n_reps = 2 * BLOCK_REPS + 5
        bayes = list(_mass_blocks(counts, n_reps, "bayesian", 7))
        assert [start for start, _ in bayes] == [0, BLOCK_REPS, 2 * BLOCK_REPS]
        g = substream(7, METHOD_IDS["bayesian"], 1).standard_gamma(counts, size=(BLOCK_REPS, 3))
        assert np.array_equal(bayes[1][1], g / g.sum(axis=1, keepdims=True))
        ordinary = list(_mass_blocks(counts, n_reps, "ordinary", 7))
        m = substream(7, METHOD_IDS["ordinary"], 2).multinomial(8, counts / 8, size=5)
        assert np.array_equal(ordinary[2][1], m)

    def test_block_rows_follow_the_cell_count(self):
        assert _block_rows(1) == _block_rows(BLOCK_CELLS // BLOCK_REPS) == BLOCK_REPS
        for k in (BLOCK_CELLS // BLOCK_REPS + 1, 5_000, BLOCK_CELLS):
            assert 1 <= _block_rows(k) < BLOCK_REPS and _block_rows(k) * k <= BLOCK_CELLS
        assert _block_rows(10 * BLOCK_CELLS) == 1

    @pytest.mark.parametrize("n, occupied", [(20_000, 0.9), (4_000, 0.6)])
    def test_block_memory_is_capped_when_cells_approach_rows(self, n, occupied):
        """A 1,979-point grid puts n continuous risks in nearly all of its
        2 (T + 1) cells (20,000 rows) or in about two thirds of them (4,000
        rows, where a block's per-threshold sums outnumber its masses).  Each
        block then holds at most BLOCK_CELLS masses, and a whole call
        allocates no more than the draws, six block-sized arrays of 8-byte
        entries and 200 bytes per row."""
        rng = substream(45, 9)
        s = ValidationSample(rng.integers(0, 2, n), rng.random(n))
        ts = make_thresholds(np.arange(1, 1980) / 2000)
        counts = _CellTable(s.outcomes, s.risks, ts).cell_counts
        assert counts.size > occupied * 2 * (len(ts) + 1) > BLOCK_CELLS // BLOCK_REPS
        for _, masses in _mass_blocks(counts, 40, "bayesian", 3):
            assert masses.size <= BLOCK_CELLS

        n_reps = 100
        tracemalloc.start()
        try:
            grid = bootstrap_nb_draws_grid(s, ts, n_reps=n_reps, seed=3)
            _, peak = tracemalloc.get_traced_memory()
        finally:
            tracemalloc.stop()
        assert peak <= grid.nbytes + 6 * 8 * BLOCK_CELLS + 200 * n

    @pytest.mark.parametrize("width", [1, 2])
    def test_ordinary_block_memory_grows_with_the_width(self, monkeypatch, width):
        """Ordinary blocks are worked ``width`` at a time, each with its own
        temporaries: 600 replicates of 20,000 rows on the 1,979-point grid
        allocate no more than the draws, ``width`` times six block-sized
        arrays of 8-byte entries and 200 bytes per row."""
        monkeypatch.setattr(resample, "_threads", lambda values: width)
        n = 20_000
        rng = substream(45, 9)
        s = ValidationSample(rng.integers(0, 2, n), rng.random(n))
        ts = make_thresholds(np.arange(1, 1980) / 2000)
        tracemalloc.start()
        try:
            grid = bootstrap_nb_draws_grid(s, ts, n_reps=600, method="ordinary", seed=3)
            _, peak = tracemalloc.get_traced_memory()
        finally:
            tracemalloc.stop()
        assert peak <= grid.nbytes + width * 6 * 8 * BLOCK_CELLS + 200 * n


@st.composite
def samples_and_probs(draw):
    """Finite values of either sign, drawn from a pool of at most as many
    (so ties are common), and probabilities: anywhere in [0, 1], the ends,
    and those whose weight ``g`` falls at 0.5 or a float either side.
    Signed zeros tie in a sort, so the values hold no -0.0, and nor does
    an NB, ``(tp - c fp) / total`` with ``tp``, ``fp`` >= +0.0."""
    n = draw(st.integers(1, 50))
    pool = draw(st.lists(st.floats(-1e6, 1e6, allow_nan=False).map(lambda v: v + 0.0)
                         | st.sampled_from([0.0, 5e-324, -5e-324, 1e300, -1e300]), min_size=1, max_size=n))
    values = draw(st.lists(st.sampled_from(pool), min_size=n, max_size=n))
    half = st.integers(0, max(0, n - 2)).map(lambda k: (k + 0.5) / max(1, n - 1)).flatmap(
        lambda p: st.sampled_from([p, np.nextafter(p, 0.0), min(1.0, np.nextafter(p, 1.0))]))
    probs = draw(st.lists(st.floats(0.0, 1.0) | st.sampled_from([0.0, 1.0]) | half,
                          min_size=1, max_size=5))
    return np.array(values), probs


@settings(max_examples=250, deadline=None)
@given(samples_and_probs())
@example((np.array([3.0]), [0.0, 0.5, 1.0]))
@example((np.array([-1.0, 2.0]), [0.0, 0.25, 0.5, 0.75, 1.0]))
@example((np.array([0.1, -0.3, 0.1, 0.7]), [0.5 / 3, 1.5 / 3, 2.5 / 3]))
def test_quantile_ranks_and_lerp_are_numpys_quantile(case):
    """``_lerp`` of the sorted values at ``_quantile_ranks`` is
    ``np.quantile(values, probs)``, bit for bit; a numpy that reads other
    order statistics or interpolates otherwise fails here."""
    values, probs = case
    lo, hi, g = _quantile_ranks(values.size, probs)
    ordered = np.sort(values)
    got = _lerp(ordered[lo], ordered[hi], g)
    assert got.tobytes() == np.quantile(values, probs).tobytes(), (got, np.quantile(values, probs))


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
        dump_draws(mat.draws, path)
        lines = path.read_text().splitlines()
        assert lines[0] == "nb_model,nb_treat_all"
        assert len(lines) == 26
        back = np.loadtxt(path, delimiter=",", skiprows=1)
        assert np.array_equal(back, mat.draws)
