"""The per-threshold cell table against the per-row reference.

Samples are small, risks often sit exactly on a threshold, and grids come
unsorted and with duplicates.  With integer weights every cell sum is an
exact integer, so the table must reproduce the row-by-row results exactly.
"""

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from nbvoi import (
    Threshold,
    ValidationSample,
    WeightVector,
    bootstrap_nb_draws_grid,
    dirichlet_weights,
    moments,
    multinomial_weights,
    nb_all,
    nb_model,
    substream,
    weighted_nb,
)
from nbvoi.netbenefit import _cell_table, _net_benefit
from nbvoi.resample import METHOD_IDS
from nbvoi.voi import MIN_SIDE_ROWS, _moment_grid, _thin_thresholds

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


@SETTINGS
@given(samples(), grids, st.data())
def test_table_nb_equals_row_reference_for_counts(s, ts, data):
    counts = data.draw(resample_counts(s.n))
    wv = WeightVector(weights=counts / s.n, kind="multinomial", counts=counts)
    tp, fp, events, non_events = _cell_table(s.outcomes, s.risks, ts)(counts)
    unit_tp, unit_fp, _, _ = _cell_table(s.outcomes, s.risks, ts)()
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
    grid = _moment_grid(s, ts)
    for t, m in zip(ts, grid):
        flagged, events = s.risks >= t.z, s.outcomes == 1
        assert m.p_tp == float(np.sum(flagged & events)) / n
        assert m.p_fp == float(np.sum(flagged & ~events)) / n
        assert m.p0 == float(np.sum(events)) / n
        assert (m.mean_model, m.mean_all) == weighted_nb(s, unit, t)
        assert (m.mean_model, m.mean_all) == (nb_model(s, t), nb_all(s, t))
        assert moments(s, t) == m


@SETTINGS
@given(samples(), grids)
def test_thin_rule_matches_row_count(s, ts):
    expect = []
    for t in ts:
        above = int(np.sum(s.risks >= t.z))
        if min(above, s.n - above) < MIN_SIDE_ROWS:
            expect.append(t)
    assert _thin_thresholds(s, ts) == expect


@SETTINGS
@given(samples(), grids, st.integers(0, 2**32 - 1))
def test_ordinary_draw_is_nb_of_materialized_resample(s, ts, seed):
    """Replicate l of the ordinary bootstrap is, bit for bit, the NB of the
    resample that its own substream draws."""
    draws = bootstrap_nb_draws_grid(s, ts, n_reps=3, method="ordinary", seed=seed).draws
    for l in range(3):
        counts = multinomial_weights(s.n, substream(seed, METHOD_IDS["ordinary"], l)).counts
        resample = s.subset(np.repeat(np.arange(s.n), counts))
        for j, t in enumerate(ts):
            assert draws[l, j, 0] == nb_model(resample, t)
            assert draws[l, j, 1] == nb_all(resample, t)


@SETTINGS
@given(samples(), grids, st.integers(0, 2**32 - 1))
def test_bayesian_draw_matches_row_reference(s, ts, seed):
    """Dirichlet weights are not integers: only the summation order differs."""
    draws = bootstrap_nb_draws_grid(s, ts, n_reps=3, method="bayesian", seed=seed).draws
    for l in range(3):
        wv = dirichlet_weights(s.n, substream(seed, METHOD_IDS["bayesian"], l))
        for j, t in enumerate(ts):
            got_model, got_all = weighted_nb(s, wv, t)
            assert draws[l, j, 0] == pytest.approx(got_model, rel=1e-12, abs=1e-15)
            assert draws[l, j, 1] == pytest.approx(got_all, rel=1e-12, abs=1e-15)
