"""The grid-shaped EVPI core against one-threshold calls.

``voi._evpi_grid`` computes each method's array-valued ``VoiResult`` over
the grid of a cell table in one reduction over the blocks of bootstrap
draws as they are drawn (or one array pass over the table's moments).
Every operation is elementwise in the threshold, so each entry must equal,
bit for bit, the one-threshold call on that threshold's draws or moments,
and the per-threshold reference below, which reduces one threshold's
``(N, S)`` draws the way EVPI was computed before the columnar core,
however many replicates each block takes.  The draws are those
``bootstrap_nb_draws_grid`` holds.
"""

import dataclasses
import math
import tracemalloc

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from nbvoi import InputError, NumericError, Threshold, ValidationSample, moments
from nbvoi.netbenefit import _CellTable, make_thresholds
from nbvoi.resample import NbDrawMatrix, _block_rows, bootstrap_nb_draws_grid
from nbvoi.rng import substream
from nbvoi.voi import (
    _VOI_ARRAYS,
    VoiResult,
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
       st.sampled_from((2, 9, 130, 256, 257, 300, 513)), st.data())
def test_bootstrap_columns_equal_one_threshold_calls(s, ts, method, n_reps, data):
    seed = data.draw(st.integers(0, 2**32 - 1))
    table = _CellTable(s.outcomes, s.risks, ts)
    (cols,) = _evpi_grid(table, (method,), n_reps, seed)
    draws = bootstrap_nb_draws_grid(s, ts, n_reps, method, seed)
    assert draws.shape == (n_reps, len(ts), 2)
    for i, (t, row) in enumerate(zip(table.thresholds, cols.rows())):
        assert t == ts[i]
        matrix = NbDrawMatrix(draws[:, i], method=method, seed=seed)
        one = evpi_bootstrap(matrix)
        ref = reference_row(matrix.draws)
        for f in _VOI_ARRAYS:
            column = getattr(cols, f)[i]
            assert same(column, getattr(one, f)), f
            assert same(column, getattr(row, f)), f
            assert same(column, ref[f]), f
        assert (one.method, one.seed, one.n_reps) == (cols.method, seed, n_reps)


@SETTINGS
@given(samples(), grids)
def test_asymptotic_columns_equal_one_threshold_calls(s, ts):
    (cols,) = _evpi_grid(_CellTable(s.outcomes, s.risks, ts), ("asymptotic",), 1, 0)
    assert np.isnan(cols.mc_se).all()
    for i, t in enumerate(ts):
        one = evpi_asymptotic(moments(s, t))
        for f in _VOI_ARRAYS:
            assert same(getattr(cols, f)[i], getattr(one, f)), f


def columns(**changes) -> VoiResult:
    base = {
        "evpi": np.array([0.0, 1e-3]), "enb_current": np.array([0.1, 0.2]),
        "enb_perfect": np.array([0.1, 0.201]), "p_useful": np.array([0.0, 1.0]),
        "best_strategy": np.array(["treat_all", "model"]),
        "r_evpi": np.array([np.nan, 1.01]), "mc_se": np.array([1e-4, 2e-4]),
        "method": "bayesian_bootstrap", "seed": 0, "n_reps": 100,
    }
    return VoiResult(**dict(base, **changes))


def test_column_checks_are_the_voi_result_checks():
    assert [row.r_evpi for row in columns().rows()] == [None, 1.01]
    for bad in ({"evpi": np.array([0.0, -1e-18])},
                {"p_useful": np.array([0.5, 1.0 + 1e-15])},
                {"p_useful": np.array([-0.0, -1e-300])},
                {"p_useful": np.array([np.nan, 0.5])}):
        with pytest.raises(NumericError):
            columns(**bad)
    row = columns().rows()[1]
    for bad in ({"evpi": -1e-18}, {"p_useful": 1.0 + 1e-15}, {"p_useful": -1e-300},
                {"p_useful": math.nan}):
        with pytest.raises(NumericError):
            dataclasses.replace(row, **bad)
    with pytest.raises(InputError, match="treat_some"):
        columns(best_strategy=np.array(["model", "treat_some"]))
    with pytest.raises(InputError, match="treat_some"):
        dataclasses.replace(row, best_strategy="treat_some")


def test_each_method_releases_its_draws_before_the_next_draws():
    """No method holds its ``(N, T, 2)`` draws: two bootstrap methods on the
    default grid at 10^4 replicates peak below one method's draws."""
    rng = np.random.default_rng(1)
    s = ValidationSample(rng.integers(0, 2, 2000), rng.random(2000))
    ts = tuple(Threshold(z) for z in np.arange(1, 201) / 1000.0)
    n_reps = 10_000
    one_method = n_reps * len(ts) * 2 * 8
    tracemalloc.start()
    try:
        _evpi_grid(_CellTable(s.outcomes, s.risks, ts), ("bayesian", "ordinary"), n_reps, 0)
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert peak < 0.8 * one_method


@pytest.mark.parametrize("method", ["bayesian", "ordinary"])
def test_blocks_smaller_than_block_reps_stream_the_same_columns(method):
    """On a 1,979-point grid, 4,000 continuous risks fill more than 1,024
    cells, so a block holds 103 replicates and 300 replicates take three
    blocks.  Each threshold's columns still equal the reference on that
    threshold's held draws, bit for bit."""
    rng = substream(45, 9)
    s = ValidationSample(rng.integers(0, 2, 4000), rng.random(4000))
    ts = make_thresholds(np.arange(1, 1980) / 2000)
    table = _CellTable(s.outcomes, s.risks, ts)
    assert _block_rows(table.cell_counts.size) == 103
    (cols,) = _evpi_grid(table, (method,), 300, 4)
    draws = bootstrap_nb_draws_grid(s, ts, 300, method, 4)
    for i in range(len(ts)):
        ref = reference_row(draws[:, i])
        for f in _VOI_ARRAYS:
            assert same(getattr(cols, f)[i], ref[f]), (i, f)


def test_one_replicate_is_refused_before_anything_is_drawn(monkeypatch):
    import nbvoi.resample as resample

    drawn = []
    monkeypatch.setattr(resample, "_block_masses", lambda *a: drawn.append(a))
    s = ValidationSample([0, 1, 1, 0], [0.1, 0.5, 0.9, 0.3])
    table = _CellTable(s.outcomes, s.risks, (Threshold(0.2),))
    with pytest.raises(InputError, match="at least 2 replicates"):
        _evpi_grid(table, ("asymptotic", "bayesian"), 1, 0)
    assert drawn == []
