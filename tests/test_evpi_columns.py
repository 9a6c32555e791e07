"""The grid-shaped EVPI core against one-threshold calls.

``voi._evpi_grid`` computes each method's EVPI columns for a whole grid in
one reduction over the bootstrap draws (or one array pass over the
moments).  Every operation is elementwise in the threshold, so each entry
must equal, bit for bit, the one-threshold call on that threshold's draws
or moments, and the per-threshold reference below, which reduces one
threshold's ``(N, S)`` draws the way EVPI was computed before the columnar
core, however many thresholds each pass over the draws takes.
"""

import math
import tracemalloc
from unittest import mock

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from nbvoi import NumericError, Threshold, ValidationSample, moments, voi
from nbvoi.resample import NbDrawMatrix
from nbvoi.voi import (
    _VOI_ARRAYS,
    _EvpiColumns,
    _evpi_grid,
    _relative_evpi,
    evpi_asymptotic,
    evpi_bootstrap,
)

Z_VALUES = (0.05, 0.1, 0.2, 0.25, 0.5, 0.7)
SETTINGS = settings(max_examples=100, deadline=None)
pytestmark = pytest.mark.filterwarnings("ignore::nbvoi.SmallEffectiveSampleWarning")

risk = st.one_of(st.sampled_from(Z_VALUES + (0.0, 1.0)), st.floats(0.0, 1.0))
grids = st.lists(st.sampled_from(Z_VALUES), min_size=1, max_size=6, unique=True).map(
    lambda zs: tuple(Threshold(z) for z in sorted(zs))
)


@st.composite
def samples(draw, min_n=2, max_n=40):
    n = draw(st.integers(min_n, max_n))
    y = draw(st.lists(st.integers(0, 1), min_size=n, max_size=n))
    p = draw(st.lists(risk, min_size=n, max_size=n))
    return ValidationSample(y, p)


def same(a, b) -> bool:
    """Equal bit for bit; None matches NaN (an undefined entry)."""
    if isinstance(a, str) or isinstance(b, str):
        return a == b
    a, b = (math.nan if v is None else v for v in (a, b))
    return np.float64(a).tobytes() == np.float64(b).tobytes()


def reference_row(d: np.ndarray) -> dict:
    """EVPI fields of one threshold's (N, S) draws, reduced per threshold."""
    row_max = np.maximum(d.max(axis=1), 0.0)
    enb_perfect = float(row_max.mean())
    col_means = d.mean(axis=0)
    mean_models, mean_all = col_means[:-1], float(col_means[-1])
    candidates = [0.0, mean_all, *mean_models.tolist()]
    idx = int(np.argmax(candidates))
    best = ("treat_none", "treat_all", "model")[min(idx, 2)]
    r = float(_relative_evpi(enb_perfect, float(mean_models.max()), mean_all))
    stacked = np.column_stack([np.zeros(d.shape[0]), d[:, -1], d[:, :-1]])
    return {
        "evpi": max(0.0, enb_perfect - candidates[idx]),
        "enb_current": candidates[idx],
        "enb_perfect": enb_perfect,
        "p_useful": float(np.mean(np.argmax(stacked, axis=1) >= 2)),
        "best_strategy": best,
        "r_evpi": r,
        "mc_se": float(row_max.std(ddof=1) / math.sqrt(d.shape[0])),
    }


@SETTINGS
@given(samples(), grids, st.sampled_from(("bayesian", "ordinary")),
       st.sampled_from((2, 9, 130, 300)), st.data())
def test_bootstrap_columns_equal_one_threshold_calls(s, ts, method, n_reps, data):
    seed = data.draw(st.integers(0, 2**32 - 1))
    # Also with one or two thresholds per pass of the per-replicate arrays.
    block = data.draw(st.sampled_from((voi._COLUMN_BLOCK, 1, 2 * n_reps)))
    made = {}
    with mock.patch.object(voi, "_COLUMN_BLOCK", block):
        out = _evpi_grid(s, ts, (method,), n_reps, seed, on_draws=made.__setitem__)
    (cols,) = out.columns
    draws = made[method]
    assert draws.shape == (n_reps, len(ts), 2)
    for i, (t, fields) in enumerate(zip(out.thresholds, cols.fields())):
        assert t == ts[i]
        matrix = NbDrawMatrix(draws[:, i], method=method, seed=seed)
        one = evpi_bootstrap(matrix)
        ref = reference_row(matrix.draws)
        for f in _VOI_ARRAYS:
            column = getattr(cols, f)[i]
            assert same(column, getattr(one, f)), f
            assert same(column, fields[f]), f
            assert same(column, ref[f]), f
        assert (one.method, one.seed, one.n_reps) == (cols.method, seed, n_reps)


@SETTINGS
@given(samples(), grids)
def test_asymptotic_columns_equal_one_threshold_calls(s, ts):
    (cols,) = _evpi_grid(s, ts, ("asymptotic",), 1, 0).columns
    assert np.isnan(cols.mc_se).all()
    for i, t in enumerate(ts):
        one = evpi_asymptotic(moments(s, t))
        for f in _VOI_ARRAYS:
            assert same(getattr(cols, f)[i], getattr(one, f)), f


def columns(**changes) -> _EvpiColumns:
    base = {
        "evpi": np.array([0.0, 1e-3]), "enb_current": np.array([0.1, 0.2]),
        "enb_perfect": np.array([0.1, 0.201]), "p_useful": np.array([0.0, 1.0]),
        "best_strategy": np.array(["treat_all", "model"]),
        "r_evpi": np.array([np.nan, 1.01]), "mc_se": np.array([1e-4, 2e-4]),
        "method": "bayesian_bootstrap", "seed": 0, "n_reps": 100,
    }
    return _EvpiColumns(**dict(base, **changes))


def test_column_checks_are_the_voi_result_checks():
    assert [f["r_evpi"] for f in columns().fields()] == [None, 1.01]
    for bad in ({"evpi": np.array([0.0, -1e-18])},
                {"p_useful": np.array([0.5, 1.0 + 1e-15])},
                {"p_useful": np.array([-0.0, -1e-300])},
                {"p_useful": np.array([np.nan, 0.5])}):
        with pytest.raises(NumericError):
            columns(**bad)


def test_each_method_releases_its_draws_before_the_next_draws():
    """Two bootstrap methods never hold two methods' draws at once: each
    method's draws go once its columns exist."""
    rng = np.random.default_rng(1)
    s = ValidationSample(rng.integers(0, 2, 2000), rng.random(2000))
    ts = tuple(Threshold(z) for z in np.arange(1, 201) / 1000.0)
    n_reps = 4000
    one_method = n_reps * len(ts) * 2 * 8
    seen = []
    tracemalloc.start()
    try:
        _evpi_grid(s, ts, ("bayesian", "ordinary"), n_reps, 0,
                   on_draws=lambda m, d: seen.append((m, d.nbytes)))
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert seen == [("bayesian", one_method), ("ordinary", one_method)]
    assert peak < 2 * one_method
