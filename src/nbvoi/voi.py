"""Expected value of perfect information (EVPI) for model validation.

The decision at a threshold is between treat-none (NB 0), treat-all, and
the candidate model.  Uncertainty about the true NBs -- expressed
either as bootstrap draws or as an asymptotic bivariate normal -- carries
an expected cost: the best strategy under current information may not be
the truly best one.  EVPI quantifies that cost,

    EVPI = E[max(0, NB_model, NB_all)] - max(0, E NB_model, E NB_all),

the expected NB gained by learning the true NBs before deciding.  Both
routes are implemented:

* bootstrap (Bayesian or ordinary): Monte Carlo average of the row-wise
  best NB minus the best column mean.  Column means are used for the
  current-information term (they converge to the original-sample estimates
  and keep the Monte Carlo difference nonnegative).
* asymptotic: (NB_model, NB_all) is approximated as bivariate normal with
  plug-in moments, and the perfect-information term becomes a closed-form
  zero-floored bivariate normal expectation.

Table in, columns out: ``_evpi_grid`` takes the cell table its caller
built and returns one array-valued :class:`VoiResult` per method, from one
reduction over the blocks of bootstrap draws as they are drawn (no route
holds the ``(N, T, 2)`` draws) or one array pass over the moments;
``_columns`` defines EVPI for both routes.  Every operation is elementwise
in the threshold.  The moments and thin masks read only a table's counts,
which may carry a leading cell axis: a sweep stacks a chunk's counts and runs
``_moment_grid``, ``_asymptotic_columns`` and ``_thin_mask`` once over them.
:meth:`VoiResult.rows` splits a grid's result into one-threshold results:
:func:`evpi_threshold_sweep` returns one ``(threshold, VoiResult)`` row per
threshold and method, methods in the order requested, and the
one-threshold functions run the same code on a one-threshold grid.
"""

from __future__ import annotations

import math
import warnings
from dataclasses import dataclass

import numpy as np

from .bvn import _check_params, _emax_pfirst, _max
from .errors import InputError, NumericError, SmallEffectiveSampleWarning
from .netbenefit import Threshold, ValidationSample, _CellTable, _net_benefit
from .resample import DEFAULT_N_REPS, NbDrawMatrix, _draw_blocks
from .rng import _check_seed

ALL_METHODS = ("bayesian", "ordinary", "asymptotic")

_METHOD_LABELS = {
    "bayesian": "bayesian_bootstrap",
    "ordinary": "ordinary_bootstrap",
    "asymptotic": "asymptotic",
}

_PSD_TOL = 1e-10
_COLUMN_BLOCK = 1 << 18  # most (threshold, replicate) entries per bootstrap temporary: 2 MB
MIN_SIDE_ROWS = 20  # fewer rows than this on one side of a threshold is "thin"


@dataclass(frozen=True)
class MomentSet:
    """Plug-in mean/covariance of ``(NB_model, NB_all)``: floats at one
    threshold, or arrays with one entry per threshold of a grid.  The checks
    run elementwise."""

    mean_model: float | np.ndarray
    mean_all: float | np.ndarray
    var_model: float | np.ndarray
    var_all: float | np.ndarray
    cov: float | np.ndarray

    def __post_init__(self):
        if np.any(np.less(self.var_model, 0)) or np.any(np.less(self.var_all, 0)):
            raise InputError("variances must be nonnegative")
        bound = np.sqrt(np.multiply(self.var_model, self.var_all))
        if np.any(np.abs(self.cov) > bound + 1e-12):
            raise InputError("covariance violates the Cauchy-Schwarz bound")


def moments(sample: ValidationSample, t: Threshold) -> MomentSet:
    """Sample moments of ``(NB_model, NB_all)`` for the normal approximation.

    With c = z/(1-z) and P_TP, P_FP, P0 the flagged-event, flagged-non-event
    and event fractions:

        var_model = (1/n) [P_TP(1-P_TP) + c^2 P_FP(1-P_FP) + 2c P_TP P_FP]
        var_all   = (1/n) (1/(1-z))^2 P0(1-P0)
        cov       = (1/(n(1-z))) [(1-P0) P_TP + c P0 P_FP]
    """
    table = _CellTable(sample.outcomes, sample.risks, t)
    grid = _moment_grid(table.counts, table.thresholds)
    return MomentSet(**{k: v[0].item() for k, v in vars(grid).items()})


def _moment_grid(counts, thresholds) -> MomentSet:
    """:func:`moments` at every threshold of a grid, as one array-valued
    :class:`MomentSet` from a cell table's ``counts`` alone.

    The counts may carry a leading cell axis: ``tp`` and ``fp`` of shape
    ``(..., T)``, ``events`` and ``non_events`` of shape ``(...)``; every
    moment then has shape ``(..., T)`` and each cell needs n >= 2.
    """
    tp, fp, events, non_events = counts
    events, non_events = np.asarray(events)[..., None], np.asarray(non_events)[..., None]
    n = events + non_events  # exact: counts are whole floats
    if np.any(n < 2):
        raise InputError("moment estimation requires n >= 2")
    p0 = events / n
    z = np.array([t.z for t in thresholds])
    c = z / (1.0 - z)
    p_tp, p_fp = tp / n, fp / n
    return MomentSet(
        mean_model=_net_benefit(tp, fp, c, n),
        mean_all=_net_benefit(events, n - events, c, n),
        var_model=(p_tp * (1 - p_tp) + c * c * p_fp * (1 - p_fp) + 2 * c * p_tp * p_fp) / n,
        var_all=p0 * (1 - p0) / (n * (1 - z) ** 2),
        cov=((1 - p0) * p_tp + c * p0 * p_fp) / (n * (1 - z)),
    )


_STRATEGIES = np.array(["treat_none", "treat_all", "model"])
_VOI_ARRAYS = ("evpi", "enb_current", "enb_perfect", "p_useful", "best_strategy", "r_evpi",
               "mc_se")


@dataclass(frozen=True)
class VoiResult:
    """EVPI and companions of one computation method: floats at one
    threshold, or the ``_VOI_ARRAYS`` over a grid, NaN where a row holds
    None.  The checks run elementwise; :meth:`rows` gives the floats.

    ``enb_current`` is max{0, expected strategy NBs} under current
    information; ``enb_perfect`` is the expected best NB with perfect
    information; ``evpi`` their difference floored at zero.  ``r_evpi`` is
    present only when the model is the current best strategy.  ``mc_se`` is
    the Monte Carlo standard error of ``enb_perfect`` (bootstrap methods
    only).  The fields are declared in the order of the ``evpi`` output
    columns, which ``io.voi_record`` takes from a row.
    """

    method: str
    evpi: float | np.ndarray
    enb_current: float | np.ndarray
    enb_perfect: float | np.ndarray
    p_useful: float | np.ndarray
    best_strategy: str | np.ndarray
    r_evpi: float | np.ndarray | None = None
    mc_se: float | np.ndarray | None = None
    seed: int | tuple | None = None
    n_reps: int | None = None

    def __post_init__(self):
        if np.any(np.less(self.evpi, 0)):
            raise NumericError("EVPI must be nonnegative after clamping")
        if not np.all(np.greater_equal(self.p_useful, 0.0) & np.less_equal(self.p_useful, 1.0)):
            raise NumericError("P(useful) must lie in [0, 1]")
        if not set(np.ravel(self.best_strategy).tolist()) <= set(_STRATEGIES.tolist()):
            raise InputError(f"unknown strategy label in {self.best_strategy!r}")

    def rows(self) -> list[VoiResult]:
        """The one-threshold results, in grid order, as Python values: None
        where ``r_evpi`` or ``mc_se`` is NaN."""
        columns = [np.ravel(getattr(self, f)).tolist() for f in _VOI_ARRAYS]
        return [VoiResult(self.method, *values[:5],
                          *(None if v is None or math.isnan(v) else v for v in values[5:]),
                          self.seed, self.n_reps)
                for values in zip(*columns)]


def _relative_evpi(enb_perfect, mean_model, mean_all) -> np.ndarray:
    """Relative EVPI (``VoiResult.r_evpi``), elementwise: the ratio of the
    perfect-information gain over treat-all to the model's
    current-information gain over treat-all.

    Defined only when the model is the current best strategy with a strictly
    positive incremental NB; NaN otherwise.  Equals 1 when there is no
    decision uncertainty.
    """
    base = _max(0.0, mean_all)
    best = _max(_max(0.0, mean_model), mean_all)
    denom = best - base
    defined = (mean_model == best) & ~(denom <= 0.0)
    return np.where(defined, (enb_perfect - base) / np.where(defined, denom, 1.0), np.nan)


def _best_by_means(mean_model: np.ndarray, mean_all: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """Current best strategy per threshold from the expected NBs (two (T,)
    arrays): the labels and their expected NBs.  Ties resolve against the
    model (treat-none, then treat-all, then the model)."""
    candidates = np.column_stack([np.zeros(len(mean_all)), mean_all, mean_model])
    idx = np.argmax(candidates, axis=1)
    return _STRATEGIES[idx], candidates[np.arange(len(idx)), idx]


def _columns(mean_model, mean_all, enb_perfect, p_useful, mc_se, method, seed=None,
             n_reps=None) -> VoiResult:
    """One method's columns from its (T,) expected and perfect-information
    NBs: EVPI, the current best strategy and rEVPI, for every route."""
    best, enb_current = _best_by_means(mean_model, mean_all)
    return VoiResult(
        evpi=_max(0.0, enb_perfect - enb_current), enb_current=enb_current,
        enb_perfect=enb_perfect, p_useful=p_useful, best_strategy=best,
        r_evpi=_relative_evpi(enb_perfect, mean_model, mean_all),
        mc_se=mc_se, method=method, seed=seed, n_reps=n_reps,
    )


def _p_useful(model: np.ndarray, treat_all: np.ndarray) -> np.ndarray:
    """At each threshold of a block's ``(rows, T)`` NBs, the number of
    replicates in which the model has the strictly highest NB,
    nb_model > max(0, nb_all).  Ties resolve against the model."""
    return np.count_nonzero(model > np.maximum(treat_all, 0.0), axis=0)


def _bootstrap_columns(blocks, n_reps: int, n_t: int, method: str, seed) -> VoiResult:
    """:func:`evpi_bootstrap` at each of ``n_t`` thresholds, from blocks
    ``(rows, model, treat_all)`` of ``(rows, n_t)`` NBs that cover ``n_reps``
    replicates in order; ``n_reps`` is checked before the first block.

    Every reduction runs along the replicate axis, so a threshold's entries
    depend only on its own draws.  The running column sum is concatenated
    onto each block, so the replicates are added in order, as by one mean
    over the ``(N, T, 2)`` draws; the row maxima are held replicate-last, so
    their mean and SD use numpy's pairwise sum exactly as over one
    threshold's vector, ``_COLUMN_BLOCK`` entries at a time.
    """
    if n_reps < 2:
        raise InputError("EVPI from draws requires at least 2 replicates")
    sums, useful, row_max = np.zeros((1, 2, n_t)), 0, np.empty((n_t, n_reps))
    for rows, model, treat_all in blocks:
        sums = np.concatenate([sums, np.stack([model, treat_all], axis=1)]).sum(
            axis=0, keepdims=True)
        useful = useful + _p_useful(model, treat_all)
        row_max[:, rows] = np.maximum(np.maximum(model, treat_all), 0.0).T
    mean_model, mean_all = sums[0] / n_reps
    enb_perfect, mc_se = np.empty(n_t), np.empty(n_t)
    step = max(1, _COLUMN_BLOCK // n_reps)
    for j in range(0, n_t, step):
        block = slice(j, j + step)
        enb_perfect[block] = row_max[block].mean(axis=1)
        mc_se[block] = row_max[block].std(axis=1, ddof=1) / math.sqrt(n_reps)
    return _columns(mean_model, mean_all, enb_perfect, useful / n_reps, mc_se,
                    _METHOD_LABELS[method], seed, n_reps)


def evpi_bootstrap(draws: NbDrawMatrix) -> VoiResult:
    """EVPI from a matrix of bootstrap NB draws.

    ``enb_perfect`` is the mean over replicates of max{0, row NBs};
    ``enb_current`` is max{0, column means}.  Requires at least two
    replicates.
    """
    d = draws.draws
    return _bootstrap_columns([(slice(None), d[:, :1], d[:, 1:])], d.shape[0], 1,
                              draws.method, draws.seed).rows()[0]


def _repair_psd(var_model, var_all, cov) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """Floor negative eigenvalues of each 2x2 covariance at zero; eigenvalues
    below -1e-10 cannot be attributed to rounding and raise.  Elementwise
    over per-threshold arrays; a matrix whose smallest eigenvalue is >= 0
    comes back unchanged."""
    v1, v2, cv = np.broadcast_arrays(
        *(np.atleast_1d(np.asarray(a, dtype=float)) for a in (var_model, var_all, cov)))
    sigma = np.stack([np.stack([v1, cv], axis=-1), np.stack([cv, v2], axis=-1)], axis=-2)
    vals, vecs = np.linalg.eigh(sigma)
    bad = vals[:, 0] < -_PSD_TOL
    if bad.any():
        raise InputError(
            "covariance matrix is not positive semidefinite "
            f"(min eigenvalue {vals[bad, 0][0]:.3g})"
        )
    fix = ~(vals[:, 0] >= 0.0)
    if not fix.any():
        return v1, v2, cv
    vecs = vecs[fix]
    repaired = (vecs * np.maximum(vals[fix], 0.0)[:, None, :]) @ np.swapaxes(vecs, 1, 2)
    v1, v2, cv = v1.copy(), v2.copy(), cv.copy()
    v1[fix], v2[fix], cv[fix] = repaired[:, 0, 0], repaired[:, 1, 1], repaired[:, 0, 1]
    return v1, v2, cv


def _asymptotic_columns(m: MomentSet) -> VoiResult:
    """:func:`evpi_asymptotic` elementwise over the moments of a
    :class:`MomentSet`, flattened: one entry per threshold, or per (cell,
    threshold) of a stack of cells."""
    mean_model, mean_all, var_model, var_all, cov = (
        np.ravel(np.asarray(v, dtype=float))
        for v in (m.mean_model, m.mean_all, m.var_model, m.var_all, m.cov))
    v1, v2, cv = _repair_psd(var_model, var_all, cov)
    s1, s2 = np.sqrt(v1), np.sqrt(v2)
    rho = np.zeros(s1.shape)
    i = (s1 != 0.0) & (s2 != 0.0)
    rho[i] = np.clip(cv[i] / (s1[i] * s2[i]), -1.0, 1.0)
    _check_params(mean_model, mean_all, s1, s2, rho)
    enb_perfect, p_model = _emax_pfirst(mean_model, mean_all, s1, s2, rho)
    return _columns(mean_model, mean_all, enb_perfect, p_model,
                    np.full(mean_model.shape, np.nan), "asymptotic")


def evpi_asymptotic(m: MomentSet) -> VoiResult:
    """Closed-form EVPI under the bivariate normal approximation.

    Supports exactly one candidate model; the perfect-information term is
    the zero-floored bivariate normal expectation and P(useful) the
    probability that the model component is the strict positive maximum.
    """
    return _asymptotic_columns(m).rows()[0]


def _thin_mask(counts) -> np.ndarray:
    """Which thresholds have fewer than ``MIN_SIDE_ROWS`` rows on one side,
    from a cell table's ``counts``, which may carry a leading cell axis as
    in :func:`_moment_grid`."""
    tp, fp, events, non_events = counts
    flagged = tp + fp
    n = np.asarray(events + non_events)[..., None]
    return np.minimum(flagged, n - flagged) < MIN_SIDE_ROWS


def _check_methods(methods) -> tuple[str, ...]:
    """``methods`` as a tuple, refused unless it is a list or a tuple (a
    set or a dict would fix no order) that names at least one method and
    each of them is a string in ``ALL_METHODS``."""
    if not isinstance(methods, (list, tuple)):
        raise InputError(f"'methods' must be a list of method names, not {methods!r}")
    methods = tuple(methods)
    if not methods:
        raise InputError(f"no EVPI method given; choose from {', '.join(ALL_METHODS)}")
    for m in methods:
        if not isinstance(m, str):
            raise InputError(f"'methods' must hold method names, not {m!r}")
        if m not in ALL_METHODS:
            raise InputError(f"unknown EVPI method {m!r}")
    return methods


def _evpi_grid(table: _CellTable, methods, n_reps, seed) -> list[VoiResult]:
    """The array-valued result of each of ``methods`` over the grid of
    ``table``; the caller checks ``methods`` and ``seed``."""
    ts = table.thresholds
    return [_asymptotic_columns(_moment_grid(table.counts, ts)) if m == "asymptotic" else
            _bootstrap_columns(_draw_blocks(table, n_reps, m, seed), n_reps, len(ts), m, seed)
            for m in methods]


def _warn_thin(names: list[str], stacklevel: int, where: str = "threshold(s)",
               note: str = "; estimates there are driven by a handful of rows") -> None:
    """One :class:`SmallEffectiveSampleWarning` naming every place (threshold
    or sweep cell) with fewer than ``MIN_SIDE_ROWS`` rows on one side;
    ``stacklevel`` counts from the caller of this function."""
    if names:
        warnings.warn(
            f"fewer than {MIN_SIDE_ROWS} observations on one side of {where} "
            f"{', '.join(names)}{note}",
            SmallEffectiveSampleWarning,
            stacklevel=stacklevel + 1,
        )


def evpi_threshold_sweep(
    sample: ValidationSample,
    thresholds,
    methods=ALL_METHODS,
    n_reps: int = DEFAULT_N_REPS,
    seed: int | tuple = 0,
) -> list[tuple[Threshold, VoiResult]]:
    """Per-threshold EVPI for each requested method.

    Bootstrap methods share each replicate across the whole grid; the
    asymptotic route is evaluated over the whole grid in one array pass,
    each threshold independently of the others.  ``thresholds`` is a grid
    as :func:`~nbvoi.netbenefit.make_thresholds` takes it; rows come back
    threshold by threshold, with methods in the order requested.  One
    warning names the thresholds with fewer than ``MIN_SIDE_ROWS`` rows on
    one side.
    """
    _check_seed(seed)
    methods = _check_methods(methods)
    table = _CellTable(sample.outcomes, sample.risks, thresholds)
    per_method = [c.rows() for c in _evpi_grid(table, methods, n_reps, seed)]
    ts = table.thresholds
    _warn_thin([f"{t.z:g}" for t, thin in zip(ts, _thin_mask(table.counts)) if thin], stacklevel=2)
    return [(t, rows[i]) for i, t in enumerate(ts) for rows in per_method]


def population_scaled(evpi: float, multiplier: float, t: Threshold) -> tuple[float, float]:
    """Scale a per-decision EVPI to a population of decisions.

    Returns ``(tp_equivalents, fp_equivalents)``: the expected number of
    true positives forgone per period, and the equivalent count of excess
    false positives (true positives times the inverse harm weight
    (1-z)/z).
    """
    if not (math.isfinite(multiplier) and multiplier > 0):
        raise InputError(f"population multiplier must be positive and finite, got {multiplier}")
    tp = evpi * multiplier
    fp = tp * ((1.0 - t.z) / t.z)
    return tp, fp
