"""The per-threshold cell table against the per-row reference.

Samples are small, risks often sit exactly on a threshold, and grids are
strictly increasing, as ``make_thresholds`` requires.  With integer weights
every cell sum is an exact integer, so the table must reproduce the
row-by-row results exactly.
Each analysis (an EVPI grid, a decision curve, a sweep cell) builds one
table and reads its counts and bootstrap draws from it.
"""

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from nbvoi import (
    LogisticDgm,
    SweepConfig,
    Threshold,
    ValidationSample,
    WeightVector,
    decision_curve,
    evpi_threshold_sweep,
    generate_synthetic,
    make_thresholds,
    moments,
    nb_all,
    nb_model,
    substream,
    weighted_nb,
)
from nbvoi.netbenefit import _CellTable, _net_benefit, default_grid
from nbvoi.resample import _mass_blocks, bootstrap_nb_draws_grid
from nbvoi.simlab import _sweep_chunk
from nbvoi.voi import ALL_METHODS, MIN_SIDE_ROWS, _moment_grid, _thin_mask

Z_VALUES = (0.05, 0.1, 0.2, 0.25, 0.5, 0.7)
SETTINGS = settings(max_examples=150, deadline=None)

risk = st.one_of(st.sampled_from(Z_VALUES + (0.0, 1.0)), st.floats(0.0, 1.0))
grids = st.lists(st.sampled_from(Z_VALUES), min_size=1, max_size=6, unique=True).map(
    lambda zs: tuple(Threshold(z) for z in sorted(zs))
)


@st.composite
def samples(draw, min_n=1, max_n=30):
    n = draw(st.integers(min_n, max_n))
    y = draw(st.lists(st.integers(0, 1), min_size=n, max_size=n))
    p = draw(st.lists(risk, min_size=n, max_size=n))
    return ValidationSample(y, p)


@st.composite
def resample_counts(draw, n):
    """Counts of n draws with replacement over n rows."""
    idx = draw(st.lists(st.integers(0, n - 1), min_size=n, max_size=n))
    return np.bincount(idx, minlength=n)


def reference_cells(outcomes, risks, ts):
    """The cells as ``np.unique`` finds them: their labels, each row's cell
    and each cell's row count, cells ordered by label."""
    zs = np.array([t.z for t in ts])
    labels = outcomes * (zs.size + 1) + np.searchsorted(zs, risks, side="right")
    cells, inverse, counts = np.unique(labels, return_inverse=True, return_counts=True)
    return cells, inverse.ravel(), counts


def row_cells(table, s):
    """Each row's cell of ``table``: where its label sits among the cell
    labels."""
    zs = np.array([t.z for t in table.thresholds])
    labels = s.outcomes * table.width + np.searchsorted(zs, s.risks, side="right")
    return np.searchsorted(table.cell_labels, labels)


@SETTINGS
@given(samples(), grids)
@example(ValidationSample([1], [0.0005]), default_grid())
@example(ValidationSample([0, 1, 0], [0.1, 0.2, 1.0]), default_grid())
def test_cells_equal_unique_reference(s, ts):
    """Also with a few rows on the 200-threshold grid, where almost every
    label is unoccupied."""
    table = _CellTable(s.outcomes, s.risks, ts)
    cells, inverse, counts = reference_cells(s.outcomes, s.risks, ts)
    assert table.cell_counts.tolist() == counts.tolist()
    assert row_cells(table, s).tolist() == inverse.tolist()
    assert table.cell_labels.tolist() == cells.tolist()


@SETTINGS
@given(samples(), grids, st.integers(0, 2**32 - 1))
def test_sums_equal_label_bincount_reference(s, ts, seed):
    """Each cell has a label of its own, so placing the masses in their
    label slots gives, bit for bit, the masses summed by label."""
    table = _CellTable(s.outcomes, s.risks, ts)
    masses = substream(seed, 5).dirichlet(table.cell_counts, size=3)
    n_labels = 2 * (len(ts) + 1)
    slots = np.array([np.bincount(table.cell_labels, weights=m, minlength=n_labels)
                      for m in masses]).reshape(3, 2, -1)
    tail = slots[..., ::-1].cumsum(axis=-1)[..., ::-1]
    tp, fp, events, non_events = table.sums(masses)
    assert np.array_equal(tp, tail[:, 1, 1:])
    assert np.array_equal(fp, tail[:, 0, 1:])
    assert np.array_equal(events, tail[:, 1, 0])
    assert np.array_equal(non_events, tail[:, 0, 0])


@SETTINGS
@given(samples(), grids, st.data())
def test_table_nb_equals_row_reference_for_counts(s, ts, data):
    counts = data.draw(resample_counts(s.n))
    wv = WeightVector(weights=counts / s.n, kind="multinomial", counts=counts)
    table = _CellTable(s.outcomes, s.risks, ts)
    tp, fp, events, non_events = table.sums(
        np.bincount(row_cells(table, s), weights=counts, minlength=table.cell_counts.size))
    unit_tp, unit_fp, _, _ = table.counts
    for j, t in enumerate(ts):
        flagged = s.risks >= t.z
        assert unit_tp[j] == np.sum(flagged & (s.outcomes == 1))
        assert unit_fp[j] == np.sum(flagged & (s.outcomes == 0))
        got_model, got_all = weighted_nb(s, wv, t)
        assert _net_benefit(tp[j], fp[j], t.harm_weight, s.n) == got_model
        assert _net_benefit(events, non_events, t.harm_weight, s.n) == got_all


@SETTINGS
@given(samples(min_n=2), grids)
def test_moments_equal_row_reference(s, ts):
    n = s.n
    unit = WeightVector(weights=np.full(n, 1.0 / n), kind="multinomial",
                        counts=np.ones(n, dtype=int))
    table = _CellTable(s.outcomes, s.risks, ts)
    grid = _moment_grid(table.counts, table.thresholds)
    for j, t in enumerate(ts):
        m = moments(s, t)
        assert (m.mean_model, m.mean_all) == weighted_nb(s, unit, t)
        assert (m.mean_model, m.mean_all) == (nb_model(s, t), nb_all(s, t))
        for f in ("mean_model", "mean_all", "var_model", "var_all", "cov"):
            assert type(getattr(m, f)) is float
            assert getattr(m, f) == getattr(grid, f)[j]


@SETTINGS
@given(samples(), grids)
def test_thin_rule_matches_row_count(s, ts):
    expect = []
    for t in ts:
        above = int(np.sum(s.risks >= t.z))
        expect.append(min(above, s.n - above) < MIN_SIDE_ROWS)
    assert _thin_mask(_CellTable(s.outcomes, s.risks, ts).counts).tolist() == expect


def _cell_draws(s, ts, n_reps, method, seed):
    """The cell masses the bootstrap draws for each replicate, (n_reps, K),
    each row's cell and each cell's row count."""
    table = _CellTable(s.outcomes, s.risks, ts)
    masses = np.concatenate([m for _, m in _mass_blocks(table.cell_counts, n_reps, method,
                                                        seed)])
    return masses, row_cells(table, s), table.cell_counts


def _resample_rows(inverse, cell_counts):
    """Rows of a resample taking each cell's drawn count from that cell's
    rows (cycling through them)."""
    idx = [np.resize(np.flatnonzero(inverse == k), c) for k, c in enumerate(cell_counts)]
    return np.concatenate(idx).astype(np.int64)


@SETTINGS
@given(samples(), grids, st.integers(0, 2**32 - 1))
def test_ordinary_draw_is_nb_of_materialized_resample(s, ts, seed):
    """Replicate l of the ordinary bootstrap is, bit for bit, the NB of the
    resample that takes each cell's drawn count from that cell's rows."""
    draws = bootstrap_nb_draws_grid(s, ts, n_reps=3, method="ordinary", seed=seed)
    masses, inverse, _ = _cell_draws(s, ts, 3, "ordinary", seed)
    for l in range(3):
        assert masses[l].sum() == s.n
        rows = _resample_rows(inverse, masses[l])
        resample = ValidationSample(s.outcomes[rows], s.risks[rows])
        for j, t in enumerate(ts):
            assert draws[l, j, 0] == nb_model(resample, t)
            assert draws[l, j, 1] == nb_all(resample, t)


@SETTINGS
@given(samples(), grids, st.integers(0, 2**32 - 1))
def test_bayesian_draw_matches_row_reference(s, ts, seed):
    """Row weights that split each cell's Dirichlet mass equally give the
    same NBs; only the summation order differs."""
    draws = bootstrap_nb_draws_grid(s, ts, n_reps=3, method="bayesian", seed=seed)
    masses, inverse, counts = _cell_draws(s, ts, 3, "bayesian", seed)
    for l in range(3):
        w = masses[l][inverse] / counts[inverse]  # each cell's mass split equally
        for j, t in enumerate(ts):
            got_model, got_all = weighted_nb(s, w, t)
            assert draws[l, j, 0] == pytest.approx(got_model, rel=1e-12, abs=1e-15)
            assert draws[l, j, 1] == pytest.approx(got_all, rel=1e-12, abs=1e-15)


@SETTINGS
@given(samples(), grids, st.data(), st.sampled_from(["bayesian", "ordinary"]),
       st.integers(0, 2**32 - 1))
def test_draws_do_not_depend_on_row_order_or_position_in_cell(s, ts, data, method, seed):
    """Cells are ordered by label, so a row permutation, or a risk moving
    within its cell, leaves every draw bit-identical."""
    perm = np.array(data.draw(st.permutations(range(s.n))), dtype=np.int64)
    base = bootstrap_nb_draws_grid(s, ts, n_reps=5, method=method, seed=seed)
    permuted = bootstrap_nb_draws_grid(ValidationSample(s.outcomes[perm], s.risks[perm]), ts,
                                       n_reps=5, method=method, seed=seed)
    assert np.array_equal(base, permuted)

    # Move every risk to the low edge of its cell: the largest grid
    # threshold at or below it, or 0 below the grid.
    zs = np.array([t.z for t in ts])
    below = np.searchsorted(zs, s.risks, side="right")
    moved = np.where(below > 0, zs[np.maximum(below - 1, 0)], 0.0)
    shifted = bootstrap_nb_draws_grid(ValidationSample(s.outcomes, moved), ts, n_reps=5,
                                      method=method, seed=seed)
    assert np.array_equal(base, shifted)


DGM = LogisticDgm(intercept=-1.55, slopes=(0.77,))
SWEEP_CFG = SweepConfig(sizes=(120,), thresholds=make_thresholds([0.1, 0.2]), n_sims=1,
                        n_reps=50, methods=ALL_METHODS, seed=5)


@pytest.mark.parametrize("analysis", [
    lambda s, ts: evpi_threshold_sweep(s, ts, ALL_METHODS, 50, 3),
    lambda s, ts: decision_curve(s, ts, n_boot=50, method="bayesian", seed=3),
    lambda s, ts: _sweep_chunk([(0, 0)], DGM, None, SWEEP_CFG),
], ids=["evpi_all_methods", "decision_curve", "sweep_cell"])
@pytest.mark.filterwarnings("ignore::nbvoi.SmallEffectiveSampleWarning")
def test_each_analysis_builds_one_cell_table(monkeypatch, analysis):
    """Counts, moments, thin mask and every bootstrap method of one analysis
    read one table."""
    builds = []
    init = _CellTable.__init__

    def counting(self, *args):
        builds.append(args)
        init(self, *args)

    monkeypatch.setattr(_CellTable, "__init__", counting)
    analysis(generate_synthetic(DGM, 300, substream(4, 2)), default_grid()[::20])
    assert len(builds) == 1
