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
  zero-floored bivariate normal expectation.  Moments, covariance repair
  and EVPI are computed as arrays over the whole threshold grid; every
  operation is elementwise, so a threshold's result does not depend on the
  rest of the grid.
"""

from __future__ import annotations

import math
import warnings
from dataclasses import dataclass
from typing import NamedTuple

import numpy as np

from .bvn import _check_params, _emax_pfirst, _max
from .errors import InputError, NumericError, SmallEffectiveSampleWarning
from .netbenefit import Threshold, ValidationSample, _cell_table, _net_benefit
from .resample import GridDraws, NbDrawMatrix, bootstrap_nb_draws_grid

ALL_METHODS = ("bayesian", "ordinary", "asymptotic")

_METHOD_LABELS = {
    "bayesian": "bayesian_bootstrap",
    "ordinary": "ordinary_bootstrap",
    "asymptotic": "asymptotic",
}

_PSD_TOL = 1e-10
MIN_SIDE_ROWS = 20  # fewer rows than this on one side of a threshold is "thin"


def _check_moments(var_model, var_all, cov, p0, p_tp, p_fp) -> None:
    """The checks of :class:`MomentSet`, over scalars or per-threshold arrays."""
    if np.any(np.less(var_model, 0)) or np.any(np.less(var_all, 0)):
        raise InputError("variances must be nonnegative")
    bound = np.sqrt(np.multiply(var_model, var_all))
    if np.any(np.abs(cov) > bound + 1e-12):
        raise InputError("covariance violates the Cauchy-Schwarz bound")
    if np.any(np.add(p_tp, p_fp) > 1.0 + 1e-12) or np.any(np.greater(p_tp, p0 + 1e-12)):
        raise InputError("inconsistent classification probabilities")


@dataclass(frozen=True)
class MomentSet:
    """Plug-in mean/covariance of ``(NB_model, NB_all)`` at one threshold.

    ``p_tp`` and ``p_fp`` are the sample fractions of flagged events and
    flagged non-events; ``p0`` is the event rate.
    """

    mean_model: float
    mean_all: float
    var_model: float
    var_all: float
    cov: float
    n: int
    p0: float
    p_tp: float
    p_fp: float
    threshold: Threshold

    def __post_init__(self):
        _check_moments(self.var_model, self.var_all, self.cov, self.p0, self.p_tp, self.p_fp)


def moments(sample: ValidationSample, t: Threshold) -> MomentSet:
    """Sample moments of ``(NB_model, NB_all)`` for the normal approximation.

    With c = z/(1-z) and P_TP, P_FP, P0 the flagged-event, flagged-non-event
    and event fractions:

        var_model = (1/n) [P_TP(1-P_TP) + c^2 P_FP(1-P_FP) + 2c P_TP P_FP]
        var_all   = (1/n) (1/(1-z))^2 P0(1-P0)
        cov       = (1/(n(1-z))) [(1-P0) P_TP + c P0 P_FP]
    """
    (m,) = _moment_grid(sample, (t,))
    return m


_GRID_FIELDS = ("mean_model", "mean_all", "var_model", "var_all", "cov", "p_tp", "p_fp")


@dataclass(frozen=True)
class _MomentGrid:
    """The :class:`MomentSet` fields over a threshold grid: the
    ``_GRID_FIELDS`` are arrays with one entry per threshold.  Iterating
    yields the per-threshold :class:`MomentSet` rows."""

    mean_model: np.ndarray
    mean_all: np.ndarray
    var_model: np.ndarray
    var_all: np.ndarray
    cov: np.ndarray
    p_tp: np.ndarray
    p_fp: np.ndarray
    n: int
    p0: float
    thresholds: tuple[Threshold, ...]

    def __post_init__(self):
        _check_moments(self.var_model, self.var_all, self.cov, self.p0, self.p_tp, self.p_fp)

    def __iter__(self):
        columns = zip(*(getattr(self, f).tolist() for f in _GRID_FIELDS))
        for t, values in zip(self.thresholds, columns):
            yield MomentSet(**dict(zip(_GRID_FIELDS, values)), n=self.n, p0=self.p0, threshold=t)


def _moment_grid(sample: ValidationSample, thresholds, counts=None) -> _MomentGrid:
    """:func:`moments` at every threshold, from one table of counts.
    ``counts`` is the sample's unit-weight ``_cell_table`` sums over this
    grid, when the caller already has them."""
    if sample.n < 2:
        raise InputError("moment estimation requires n >= 2")
    n, events = sample.n, sample.n_events
    p0 = events / n
    tp, fp, _, _ = counts if counts is not None else _cell_table(
        sample.outcomes, sample.risks, thresholds)()
    z = np.array([t.z for t in thresholds])
    c = np.array([t.harm_weight for t in thresholds])
    p_tp, p_fp = tp / n, fp / n
    return _MomentGrid(
        mean_model=_net_benefit(tp, fp, c, n),
        mean_all=_net_benefit(events, n - events, c, n),
        var_model=(p_tp * (1 - p_tp) + c * c * p_fp * (1 - p_fp) + 2 * c * p_tp * p_fp) / n,
        var_all=p0 * (1 - p0) / (n * (1 - z) ** 2),
        cov=((1 - p0) * p_tp + c * p0 * p_fp) / (n * (1 - z)),
        p_tp=p_tp, p_fp=p_fp, n=n, p0=p0, thresholds=tuple(thresholds),
    )


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
        if self.evpi < 0:
            raise NumericError("EVPI must be nonnegative after clamping")
        if not 0.0 <= self.p_useful <= 1.0:
            raise NumericError("P(useful) must lie in [0, 1]")
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


def p_useful(draws: NbDrawMatrix) -> float:
    """Fraction of draws in which a model strategy has the strictly highest
    NB among {treat-none, treat-all, models}.  For the single-model case this
    is P(nb_model > max(0, nb_all)).  Ties resolve against the model:
    treat-none, then treat-all, then the model columns in order."""
    d = draws.draws
    stacked = np.column_stack([np.zeros(d.shape[0]), d[:, -1], d[:, :-1]])
    return float(np.mean(np.argmax(stacked, axis=1) >= 2))


_STRATEGIES = np.array(["treat_none", "treat_all", "model"])


def _best_by_means(mean_models: np.ndarray, mean_all: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """Current best strategy per row from expected NBs (``mean_models`` is
    (T, M), ``mean_all`` (T,)): the labels and their expected NBs.  Ties
    resolve against the model (treat-none, then treat-all, then models)."""
    candidates = np.column_stack([np.zeros(len(mean_all)), mean_all, mean_models])
    idx = np.argmax(candidates, axis=1)
    return _STRATEGIES[np.minimum(idx, 2)], candidates[np.arange(len(idx)), idx]


def evpi_bootstrap(draws: NbDrawMatrix) -> VoiResult:
    """EVPI from a matrix of bootstrap NB draws.

    ``enb_perfect`` is the mean over replicates of max{0, row NBs};
    ``enb_current`` is max{0, column means}.  Requires at least two
    replicates.
    """
    d = draws.draws
    if d.shape[0] < 2:
        raise InputError("EVPI from draws requires at least 2 replicates")
    row_max = np.maximum(d.max(axis=1), 0.0)
    enb_perfect = float(row_max.mean())
    col_means = d.mean(axis=0)
    mean_models, mean_all = col_means[:-1], float(col_means[-1])
    best, enb_current = _best_by_means(mean_models[None, :], np.array([mean_all]))
    best, enb_current = str(best[0]), float(enb_current[0])
    evpi = max(0.0, enb_perfect - enb_current)
    r = relative_evpi(enb_perfect, float(mean_models.max()), mean_all) if best == "model" else None
    mc_se = float(row_max.std(ddof=1) / math.sqrt(d.shape[0]))
    return VoiResult(
        evpi=evpi, enb_current=enb_current, enb_perfect=enb_perfect,
        p_useful=p_useful(draws), best_strategy=best, method=_METHOD_LABELS[draws.method],
        r_evpi=r, mc_se=mc_se, seed=draws.seed, n_reps=d.shape[0],
    )


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


def _asymptotic_rows(m) -> list[VoiResult]:
    """:func:`evpi_asymptotic` elementwise over the moments of a
    :class:`MomentSet` or a ``_MomentGrid``, one :class:`VoiResult` per
    threshold."""
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
    evpi = _max(0.0, enb_perfect - enb_current)
    r = np.where(best == "model", _relative_evpi(enb_perfect, mean_model, mean_all), np.nan)
    columns = (evpi, enb_current, enb_perfect, p_model, best, r)
    return [
        VoiResult(evpi=e, enb_current=c, enb_perfect=p, p_useful=u, best_strategy=b,
                  method="asymptotic", r_evpi=None if math.isnan(x) else x)
        for e, c, p, u, b, x in zip(*(a.tolist() for a in columns))
    ]


def evpi_asymptotic(m: MomentSet) -> VoiResult:
    """Closed-form EVPI under the bivariate normal approximation.

    Supports exactly one candidate model; the perfect-information term is
    the zero-floored bivariate normal expectation and P(useful) the
    probability that the model component is the strict positive maximum.
    """
    (row,) = _asymptotic_rows(m)
    return row


def _thin_thresholds(sample: ValidationSample, thresholds, counts=None) -> list[Threshold]:
    """Thresholds with fewer than ``MIN_SIDE_ROWS`` rows on one side;
    ``counts`` as in :func:`_moment_grid`."""
    tp, fp, _, _ = counts if counts is not None else _cell_table(
        sample.outcomes, sample.risks, thresholds)()
    flagged = (tp + fp).tolist()
    return [t for t, a in zip(thresholds, flagged) if min(a, sample.n - a) < MIN_SIDE_ROWS]


class _GridEvpi(NamedTuple):
    """One EVPI evaluation over a grid: the ``(threshold, result)`` rows,
    the thin thresholds and the bootstrap draws by method."""

    rows: list[tuple[Threshold, VoiResult]]
    thin: list[Threshold]
    draws: dict[str, GridDraws]


def _evpi_grid(sample, thresholds, methods, n_reps, seed, extra_risks=None) -> _GridEvpi:
    """The work of :func:`evpi_threshold_sweep`, from one table of counts
    and one bootstrap per method, without warning."""
    if isinstance(thresholds, Threshold):
        thresholds = (thresholds,)
    thresholds = tuple(thresholds)
    methods = tuple(methods)
    for m in methods:
        if m not in ALL_METHODS:
            raise InputError(f"unknown EVPI method {m!r}")
    if "asymptotic" in methods and extra_risks is not None:
        raise InputError("the asymptotic method supports exactly one candidate model")

    counts = _cell_table(sample.outcomes, sample.risks, thresholds)()
    per_method: dict[str, list[VoiResult]] = {}
    draws: dict[str, GridDraws] = {}
    for m in methods:
        if m == "asymptotic":
            per_method[m] = _asymptotic_rows(_moment_grid(sample, thresholds, counts))
        else:
            draws[m] = bootstrap_nb_draws_grid(
                sample, thresholds, n_reps=n_reps, method=m, seed=seed,
                extra_risks=extra_risks,
            )
            per_method[m] = [evpi_bootstrap(draws[m].at(i)) for i in range(len(thresholds))]

    rows = [(t, per_method[m][i]) for i, t in enumerate(thresholds) for m in methods]
    return _GridEvpi(rows, _thin_thresholds(sample, thresholds, counts), draws)


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

    Bootstrap methods reuse one weight stream across the whole grid; the
    asymptotic route is evaluated over the whole grid in one array pass,
    each threshold independently of the others.  Rows come back in the
    order of ``thresholds`` (which may be unsorted), with methods in the
    order requested.  One warning names the thresholds with fewer than
    ``MIN_SIDE_ROWS`` rows on one side.
    """
    out = _evpi_grid(sample, thresholds, methods, n_reps, seed, extra_risks)
    _warn_thin([f"{t.z:g}" for t in out.thin], stacklevel=2)
    return out.rows


def population_scaled(evpi: float, multiplier: float, t: Threshold) -> tuple[float, float]:
    """Scale a per-decision EVPI to a population of decisions.

    Returns ``(tp_equivalents, fp_equivalents)``: the expected number of
    true positives forgone per period, and the equivalent count of excess
    false positives (true positives times the inverse harm weight
    (1-z)/z).
    """
    if multiplier <= 0:
        raise InputError("population multiplier must be positive")
    tp = evpi * multiplier
    fp = tp * ((1.0 - t.z) / t.z)
    return tp, fp
