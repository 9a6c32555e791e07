"""Expected value of perfect information (EVPI) for model validation.

The decision at a threshold is between treat-none (NB 0), treat-all, and
one or more candidate models.  Uncertainty about the true NBs -- expressed
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

Both routes work on whole grids: ``_evpi_grid`` returns, per method, the
:class:`VoiResult` fields as arrays over the thresholds, from one reduction
over the ``(N, T, S)`` bootstrap draws or one array pass over the moments.
Every operation is elementwise in the threshold, so a threshold's result
does not depend on the rest of the grid.  The one-threshold functions call
the same code with a one-threshold grid; they and
:func:`evpi_threshold_sweep` alone build :class:`VoiResult` rows.
"""

from __future__ import annotations

import math
import warnings
from dataclasses import dataclass, replace
from typing import NamedTuple

import numpy as np

from .bvn import _check_params, _emax_pfirst, _max
from .errors import InputError, NumericError, SmallEffectiveSampleWarning
from .netbenefit import Threshold, ValidationSample, _CellTable, _net_benefit
from .resample import NbDrawMatrix, _risk_columns, _table_draws
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
    threshold, or arrays with one entry per threshold of a grid (then
    ``threshold`` holds the grid).  The checks run elementwise.

    ``p_tp`` and ``p_fp`` are the sample fractions of flagged events and
    flagged non-events; ``p0`` is the event rate.
    """

    mean_model: float | np.ndarray
    mean_all: float | np.ndarray
    var_model: float | np.ndarray
    var_all: float | np.ndarray
    cov: float | np.ndarray
    n: int
    p0: float
    p_tp: float | np.ndarray
    p_fp: float | np.ndarray
    threshold: Threshold | tuple[Threshold, ...]

    def __post_init__(self):
        if np.any(np.less(self.var_model, 0)) or np.any(np.less(self.var_all, 0)):
            raise InputError("variances must be nonnegative")
        bound = np.sqrt(np.multiply(self.var_model, self.var_all))
        if np.any(np.abs(self.cov) > bound + 1e-12):
            raise InputError("covariance violates the Cauchy-Schwarz bound")
        if (np.any(np.add(self.p_tp, self.p_fp) > 1.0 + 1e-12)
                or np.any(np.greater(self.p_tp, self.p0 + 1e-12))):
            raise InputError("inconsistent classification probabilities")


def moments(sample: ValidationSample, t: Threshold) -> MomentSet:
    """Sample moments of ``(NB_model, NB_all)`` for the normal approximation.

    With c = z/(1-z) and P_TP, P_FP, P0 the flagged-event, flagged-non-event
    and event fractions:

        var_model = (1/n) [P_TP(1-P_TP) + c^2 P_FP(1-P_FP) + 2c P_TP P_FP]
        var_all   = (1/n) (1/(1-z))^2 P0(1-P0)
        cov       = (1/(n(1-z))) [(1-P0) P_TP + c P0 P_FP]
    """
    grid = _moment_grid(sample, _CellTable(sample.outcomes, [sample.risks], t))
    return replace(grid, threshold=t, **{
        k: v[0].item() for k, v in vars(grid).items() if isinstance(v, np.ndarray)})


def _moment_grid(sample: ValidationSample, table: _CellTable) -> MomentSet:
    """:func:`moments` at every threshold of the sample's cell table, as one
    array-valued :class:`MomentSet` from the table's counts."""
    if sample.n < 2:
        raise InputError("moment estimation requires n >= 2")
    n, events = sample.n, sample.n_events
    p0 = events / n
    tp, fp, _, _ = table.counts
    z = np.array([t.z for t in table.thresholds])
    c = table.harm_weight
    p_tp, p_fp = tp / n, fp / n
    return MomentSet(
        mean_model=_net_benefit(tp, fp, c, n),
        mean_all=_net_benefit(events, n - events, c, n),
        var_model=(p_tp * (1 - p_tp) + c * c * p_fp * (1 - p_fp) + 2 * c * p_tp * p_fp) / n,
        var_all=p0 * (1 - p0) / (n * (1 - z) ** 2),
        cov=((1 - p0) * p_tp + c * p0 * p_fp) / (n * (1 - z)),
        n=n, p0=p0, p_tp=p_tp, p_fp=p_fp, threshold=table.thresholds,
    )


def _check_voi(evpi, p_useful) -> None:
    """The checks of :class:`VoiResult`, over scalars or per-threshold arrays."""
    if np.any(np.less(evpi, 0)):
        raise NumericError("EVPI must be nonnegative after clamping")
    if not np.all(np.greater_equal(p_useful, 0.0) & np.less_equal(p_useful, 1.0)):
        raise NumericError("P(useful) must lie in [0, 1]")


@dataclass(frozen=True)
class VoiResult:
    """EVPI and companions for one threshold and one computation method.

    ``enb_current`` is max{0, expected strategy NBs} under current
    information; ``enb_perfect`` is the expected best NB with perfect
    information; ``evpi`` their difference floored at zero.  ``r_evpi`` is
    present only when the model is the current best strategy.  ``mc_se`` is
    the Monte Carlo standard error of ``enb_perfect`` (bootstrap methods
    only).
    """

    evpi: float
    enb_current: float
    enb_perfect: float
    p_useful: float
    best_strategy: str
    method: str
    r_evpi: float | None = None
    mc_se: float | None = None
    seed: int | tuple | None = None
    n_reps: int | None = None

    def __post_init__(self):
        _check_voi(self.evpi, self.p_useful)
        if self.best_strategy not in ("model", "treat_all", "treat_none"):
            raise InputError(f"unknown strategy label {self.best_strategy!r}")


def _relative_evpi(enb_perfect, mean_model, mean_all) -> np.ndarray:
    """:func:`relative_evpi` elementwise, NaN where it is undefined."""
    base = _max(0.0, mean_all)
    best = _max(_max(0.0, mean_model), mean_all)
    denom = best - base
    defined = (mean_model == best) & ~(denom <= 0.0)
    return np.where(defined, (enb_perfect - base) / np.where(defined, denom, 1.0), np.nan)


def relative_evpi(enb_perfect: float, mean_model: float, mean_all: float) -> float | None:
    """Ratio of the perfect-information gain over treat-all to the model's
    current-information gain over treat-all.

    Defined only when the model is the current best strategy with a strictly
    positive incremental NB; returns None otherwise.  Equals 1 when there is
    no decision uncertainty.
    """
    r = float(_relative_evpi(enb_perfect, mean_model, mean_all))
    return None if math.isnan(r) else r


_STRATEGIES = np.array(["treat_none", "treat_all", "model"])


def _best_by_means(mean_models: np.ndarray, mean_all: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """Current best strategy per row from expected NBs (``mean_models`` is
    (T, M), ``mean_all`` (T,)): the labels and their expected NBs.  Ties
    resolve against the model (treat-none, then treat-all, then models)."""
    candidates = np.column_stack([np.zeros(len(mean_all)), mean_all, mean_models])
    idx = np.argmax(candidates, axis=1)
    return _STRATEGIES[np.minimum(idx, 2)], candidates[np.arange(len(idx)), idx]


_VOI_ARRAYS = ("evpi", "enb_current", "enb_perfect", "p_useful", "best_strategy", "r_evpi",
               "mc_se")


@dataclass(frozen=True)
class _EvpiColumns:
    """The :class:`VoiResult` fields of one method over a threshold grid:
    the ``_VOI_ARRAYS`` hold one entry per threshold, NaN where a row holds
    None (``r_evpi`` where undefined, ``mc_se`` on the asymptotic route).
    The :class:`VoiResult` checks run elementwise."""

    evpi: np.ndarray
    enb_current: np.ndarray
    enb_perfect: np.ndarray
    p_useful: np.ndarray
    best_strategy: np.ndarray
    r_evpi: np.ndarray
    mc_se: np.ndarray
    method: str
    seed: int | tuple | None = None
    n_reps: int | None = None

    def __post_init__(self):
        _check_voi(self.evpi, self.p_useful)

    def fields(self) -> list[dict]:
        """The :class:`VoiResult` fields at each threshold, as Python values."""
        common = {"method": self.method, "seed": self.seed, "n_reps": self.n_reps}
        rows = [dict(zip(_VOI_ARRAYS, values), **common)
                for values in zip(*(getattr(self, f).tolist() for f in _VOI_ARRAYS))]
        for row in rows:
            row.update({f: None for f in ("r_evpi", "mc_se") if math.isnan(row[f])})
        return rows


def _p_useful(d: np.ndarray) -> np.ndarray:
    """:func:`p_useful` at each threshold of ``(N, T, S)`` draws."""
    useful = d[..., :-1].max(axis=-1) > np.maximum(d[..., -1], 0.0)
    return np.count_nonzero(useful, axis=0) / d.shape[0]


def p_useful(draws: NbDrawMatrix) -> float:
    """Fraction of draws in which a model strategy has the strictly highest
    NB among {treat-none, treat-all, models}.  For the single-model case this
    is P(nb_model > max(0, nb_all)).  Ties resolve against the model:
    treat-none, then treat-all, then the model columns in order."""
    return float(_p_useful(draws.draws[:, None, :])[0])


def _bootstrap_columns(d: np.ndarray, method: str, seed) -> _EvpiColumns:
    """:func:`evpi_bootstrap` at each threshold of ``(N, T, S)`` draws.

    Every reduction runs along the replicate axis, so a threshold's entries
    depend only on its own draws.  The column means add the replicates in
    order; the row maxima are laid out replicate-last, so their mean and SD
    use numpy's pairwise sum exactly as over one threshold's vector.  The
    per-replicate arrays are built for ``_COLUMN_BLOCK`` entries at a time.
    """
    n_reps, n_t = d.shape[:2]
    if n_reps < 2:
        raise InputError("EVPI from draws requires at least 2 replicates")
    means = d.mean(axis=0)
    mean_models, mean_all = means[:, :-1], means[:, -1]
    useful, enb_perfect, mc_se = np.empty(n_t), np.empty(n_t), np.empty(n_t)
    step = max(1, _COLUMN_BLOCK // n_reps)
    for j in range(0, n_t, step):
        block = slice(j, j + step)
        useful[block] = _p_useful(d[:, block])
        row_max = np.maximum(d[:, block].max(axis=2).T, 0.0, order="C")
        enb_perfect[block] = row_max.mean(axis=1)
        mc_se[block] = row_max.std(axis=1, ddof=1) / math.sqrt(n_reps)
    best, enb_current = _best_by_means(mean_models, mean_all)
    return _EvpiColumns(
        evpi=_max(0.0, enb_perfect - enb_current), enb_current=enb_current,
        enb_perfect=enb_perfect, p_useful=useful, best_strategy=best,
        r_evpi=_relative_evpi(enb_perfect, mean_models.max(axis=1), mean_all),
        mc_se=mc_se, method=_METHOD_LABELS[method], seed=seed, n_reps=n_reps,
    )


def evpi_bootstrap(draws: NbDrawMatrix) -> VoiResult:
    """EVPI from a matrix of bootstrap NB draws.

    ``enb_perfect`` is the mean over replicates of max{0, row NBs};
    ``enb_current`` is max{0, column means}.  Requires at least two
    replicates.
    """
    (row,) = _bootstrap_columns(draws.draws[:, None, :], draws.method, draws.seed).fields()
    return VoiResult(**row)


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


def _asymptotic_columns(m: MomentSet) -> _EvpiColumns:
    """:func:`evpi_asymptotic` elementwise over the moments of a
    :class:`MomentSet`, one entry per threshold."""
    mean_model, mean_all = (np.atleast_1d(np.asarray(v, dtype=float))
                            for v in (m.mean_model, m.mean_all))
    v1, v2, cv = _repair_psd(m.var_model, m.var_all, m.cov)
    s1, s2 = np.sqrt(v1), np.sqrt(v2)
    rho = np.zeros(s1.shape)
    i = (s1 != 0.0) & (s2 != 0.0)
    rho[i] = np.clip(cv[i] / (s1[i] * s2[i]), -1.0, 1.0)
    _check_params(mean_model, mean_all, s1, s2, rho)
    enb_perfect, p_model = _emax_pfirst(mean_model, mean_all, s1, s2, rho)
    best, enb_current = _best_by_means(mean_model[:, None], mean_all)
    return _EvpiColumns(
        evpi=_max(0.0, enb_perfect - enb_current), enb_current=enb_current,
        enb_perfect=enb_perfect, p_useful=p_model, best_strategy=best,
        r_evpi=_relative_evpi(enb_perfect, mean_model, mean_all),
        mc_se=np.full(mean_model.shape, np.nan), method="asymptotic",
    )


def evpi_asymptotic(m: MomentSet) -> VoiResult:
    """Closed-form EVPI under the bivariate normal approximation.

    Supports exactly one candidate model; the perfect-information term is
    the zero-floored bivariate normal expectation and P(useful) the
    probability that the model component is the strict positive maximum.
    """
    (row,) = _asymptotic_columns(m).fields()
    return VoiResult(**row)


def _thin_mask(table: _CellTable) -> np.ndarray:
    """Which thresholds of a cell table have fewer than ``MIN_SIDE_ROWS``
    rows on one side."""
    tp, fp, events, non_events = table.counts
    flagged = tp + fp
    return np.minimum(flagged, events + non_events - flagged) < MIN_SIDE_ROWS


class _GridEvpi(NamedTuple):
    """One EVPI evaluation over a grid: the columns of each method in the
    order requested and the mask of thin thresholds."""

    thresholds: tuple[Threshold, ...]
    columns: list[_EvpiColumns]
    thin: np.ndarray

    def by_threshold(self) -> list[tuple[Threshold, dict]]:
        """``(threshold, VoiResult fields)`` pairs in the order of the grid,
        methods in the order requested."""
        per_method = [c.fields() for c in self.columns]
        return [(t, rows[i]) for i, t in enumerate(self.thresholds) for rows in per_method]


def _evpi_grid(sample, thresholds, methods, n_reps, seed, extra_risks=None,
               on_draws=None) -> _GridEvpi:
    """The work of :func:`evpi_threshold_sweep`, without warning, from one
    cell table (``extra_risks`` included) and one bootstrap per method.
    Each method's ``(N, T, S)`` draws go to ``on_draws(method, draws)``, if
    given, once its columns exist, and are then released."""
    _check_seed(seed)
    methods = tuple(methods)
    for m in methods:
        if m not in ALL_METHODS:
            raise InputError(f"unknown EVPI method {m!r}")
    if "asymptotic" in methods and extra_risks is not None:
        raise InputError("the asymptotic method supports exactly one candidate model")

    table = _CellTable(sample.outcomes, _risk_columns(sample, extra_risks), thresholds)
    columns: list[_EvpiColumns] = []
    for m in methods:
        if m == "asymptotic":
            columns.append(_asymptotic_columns(_moment_grid(sample, table)))
        else:
            draws = _table_draws(table, n_reps, m, seed)
            columns.append(_bootstrap_columns(draws, m, seed))
            if on_draws is not None:
                on_draws(m, draws)
            del draws  # before the next method's draws are made
    return _GridEvpi(table.thresholds, columns, _thin_mask(table))


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
    n_reps: int = 10_000,
    seed: int | tuple = 0,
    extra_risks=None,
) -> list[tuple[Threshold, VoiResult]]:
    """Per-threshold EVPI for each requested method.

    Bootstrap methods share each replicate across the whole grid; the
    asymptotic route is evaluated over the whole grid in one array pass,
    each threshold independently of the others.  Rows come back in the
    order of ``thresholds`` (which may be unsorted), with methods in the
    order requested.  One warning names the thresholds with fewer than
    ``MIN_SIDE_ROWS`` rows on one side.
    """
    out = _evpi_grid(sample, thresholds, methods, n_reps, seed, extra_risks)
    _warn_thin([f"{t.z:g}" for t, thin in zip(out.thresholds, out.thin) if thin], stacklevel=2)
    return [(t, VoiResult(**fields)) for t, fields in out.by_threshold()]


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
