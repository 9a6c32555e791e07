"""The per-threshold cell table against the per-row reference.

Samples are small, risks often sit exactly on a threshold, and grids come
unsorted and with duplicates.  With integer weights every cell sum is an
exact integer, so the table must reproduce the row-by-row results exactly.
"""

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from nbvoi import Threshold, ValidationSample, WeightVector, moments, nb_all, nb_model, weighted_nb
from nbvoi.netbenefit import _CellTable, _net_benefit
from nbvoi.resample import _mass_blocks, bootstrap_nb_draws_grid
from nbvoi.voi import MIN_SIDE_ROWS, _moment_grid, _thin_mask

Z_VALUES = (0.05, 0.1, 0.2, 0.25, 0.5, 0.7)
SETTINGS = settings(max_examples=150, deadline=None)

risk = st.one_of(st.sampled_from(Z_VALUES + (0.0, 1.0)), st.floats(0.0, 1.0))
grids = st.lists(st.sampled_from(Z_VALUES), min_size=1, max_size=6).map(
    lambda zs: tuple(Threshold(z) for z in zs)
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


def reference_joint_cells(outcomes, risk_cols, ts):
    """The cells as ``np.unique`` found them before the table owned them:
    each column's row labels, then one row of each cell, each row's cell and
    each cell's row count, cells ordered by their label tuples."""
    zs = np.sort([t.z for t in ts])
    width = zs.size + 1
    labels = [outcomes * width + np.searchsorted(zs, r, side="right") for r in risk_cols]
    key = labels[0]
    for more in labels[1:]:
        _, key = np.unique(key, return_inverse=True)
        key = key.ravel() * width + more % width
    _, first, inverse, counts = np.unique(
        key, return_index=True, return_inverse=True, return_counts=True)
    return labels, first, inverse.ravel(), counts


@SETTINGS
@given(samples(), grids, st.integers(0, 2), st.data())
def test_cells_equal_unique_reference(s, ts, n_extra, data):
    extra = [np.array(data.draw(st.lists(risk, min_size=s.n, max_size=s.n)))
             for _ in range(n_extra)]
    cols = [s.risks, *extra]
    table = _CellTable(s.outcomes, cols, ts)
    labels, first, inverse, counts = reference_joint_cells(s.outcomes, cols, ts)
    assert table.cell_counts.tolist() == counts.tolist()
    assert table.row_cell.tolist() == inverse.tolist()
    assert table.cell_labels.tolist() == [l[first].tolist() for l in labels]


@SETTINGS
@given(samples(), grids, st.data())
def test_table_nb_equals_row_reference_for_counts(s, ts, data):
    counts = data.draw(resample_counts(s.n))
    wv = WeightVector(weights=counts / s.n, kind="multinomial", counts=counts)
    table = _CellTable(s.outcomes, [s.risks], ts)
    (tp,), (fp,), events, non_events = table.sums(
        np.bincount(table.row_cell, weights=counts, minlength=table.cell_counts.size))
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
    grid = _moment_grid(s, _CellTable(s.outcomes, [s.risks], ts))
    assert grid.threshold == ts
    for j, t in enumerate(ts):
        m = moments(s, t)
        flagged, events = s.risks >= t.z, s.outcomes == 1
        assert m.p_tp == float(np.sum(flagged & events)) / n
        assert m.p_fp == float(np.sum(flagged & ~events)) / n
        assert m.p0 == float(np.sum(events)) / n
        assert (m.mean_model, m.mean_all) == weighted_nb(s, unit, t)
        assert (m.mean_model, m.mean_all) == (nb_model(s, t), nb_all(s, t))
        for f in ("mean_model", "mean_all", "var_model", "var_all", "cov", "p_tp", "p_fp"):
            assert type(getattr(m, f)) is float
            assert getattr(m, f) == getattr(grid, f)[j]
        assert (m.n, m.p0, m.threshold) == (grid.n, grid.p0, t)


@SETTINGS
@given(samples(), grids)
def test_thin_rule_matches_row_count(s, ts):
    expect = []
    for t in ts:
        above = int(np.sum(s.risks >= t.z))
        expect.append(min(above, s.n - above) < MIN_SIDE_ROWS)
    assert _thin_mask(_CellTable(s.outcomes, [s.risks], ts)).tolist() == expect


def _cell_draws(s, ts, n_reps, method, seed, extra=()):
    """The cell masses the bootstrap draws for each replicate, (n_reps, K),
    each row's cell and each cell's row count."""
    table = _CellTable(s.outcomes, [s.risks, *extra], ts)
    masses = np.concatenate([m for _, m in _mass_blocks(table.cell_counts, n_reps, method,
                                                        seed)])
    return masses, table.row_cell, table.cell_counts


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
    draws = bootstrap_nb_draws_grid(s, ts, n_reps=3, method="ordinary", seed=seed).draws
    masses, inverse, _ = _cell_draws(s, ts, 3, "ordinary", seed)
    for l in range(3):
        assert masses[l].sum() == s.n
        resample = s.subset(_resample_rows(inverse, masses[l]))
        for j, t in enumerate(ts):
            assert draws[l, j, 0] == nb_model(resample, t)
            assert draws[l, j, 1] == nb_all(resample, t)


@SETTINGS
@given(samples(), grids, st.integers(0, 2**32 - 1))
def test_bayesian_draw_matches_row_reference(s, ts, seed):
    """Row weights that split each cell's Dirichlet mass equally give the
    same NBs; only the summation order differs."""
    draws = bootstrap_nb_draws_grid(s, ts, n_reps=3, method="bayesian", seed=seed).draws
    masses, inverse, counts = _cell_draws(s, ts, 3, "bayesian", seed)
    for l in range(3):
        w = masses[l][inverse] / counts[inverse]  # each cell's mass split equally
        for j, t in enumerate(ts):
            got_model, got_all = weighted_nb(s, w, t)
            assert draws[l, j, 0] == pytest.approx(got_model, rel=1e-12, abs=1e-15)
            assert draws[l, j, 1] == pytest.approx(got_all, rel=1e-12, abs=1e-15)


@SETTINGS
@given(samples(), grids, st.data(), st.integers(0, 2**32 - 1))
def test_extra_model_draws_are_nb_of_joint_cell_resample(s, ts, data, seed):
    """With a second model the cells are the (outcome, bin, bin) labels;
    every model column of ordinary draw l is the NB of that replicate's
    materialized resample."""
    second = np.array(data.draw(st.lists(risk, min_size=s.n, max_size=s.n)))
    draws = bootstrap_nb_draws_grid(s, ts, n_reps=3, method="ordinary", seed=seed,
                                    extra_risks=second).draws
    masses, inverse, _ = _cell_draws(s, ts, 3, "ordinary", seed, extra=(second,))
    for l in range(3):
        rows = _resample_rows(inverse, masses[l])
        first, other = s.subset(rows), ValidationSample(s.outcomes[rows], second[rows])
        for j, t in enumerate(ts):
            assert draws[l, j, 0] == nb_model(first, t)
            assert draws[l, j, 1] == nb_model(other, t)
            assert draws[l, j, 2] == nb_all(first, t)


@SETTINGS
@given(samples(), grids, st.data(), st.sampled_from(["bayesian", "ordinary"]),
       st.integers(0, 2**32 - 1))
def test_draws_do_not_depend_on_row_order_or_position_in_cell(s, ts, data, method, seed):
    """Cells are ordered by label, so a row permutation, or a risk moving
    within its cell, leaves every draw bit-identical."""
    perm = np.array(data.draw(st.permutations(range(s.n))), dtype=np.int64)
    base = bootstrap_nb_draws_grid(s, ts, n_reps=5, method=method, seed=seed).draws
    permuted = bootstrap_nb_draws_grid(s.subset(perm), ts, n_reps=5, method=method,
                                       seed=seed).draws
    assert np.array_equal(base, permuted)

    # Move every risk to the low edge of its cell: the largest grid
    # threshold at or below it, or 0 below the grid.
    zs = np.sort([t.z for t in ts])
    below = np.searchsorted(zs, s.risks, side="right")
    moved = np.where(below > 0, zs[np.maximum(below - 1, 0)], 0.0)
    shifted = bootstrap_nb_draws_grid(ValidationSample(s.outcomes, moved), ts, n_reps=5,
                                      method=method, seed=seed).draws
    assert np.array_equal(base, shifted)
