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
"""

from __future__ import annotations

import math
import warnings
from dataclasses import dataclass

import numpy as np

from .bvn import BvnParams, e_max_zero_bvn, p_first_positive_max
from .errors import InputError, NumericError, SmallEffectiveSampleWarning
from .netbenefit import Threshold, ValidationSample, _cell_table, _net_benefit
from .resample import NbDrawMatrix, bootstrap_nb_draws_grid

ALL_METHODS = ("bayesian", "ordinary", "asymptotic")

_METHOD_LABELS = {
    "bayesian": "bayesian_bootstrap",
    "ordinary": "ordinary_bootstrap",
    "asymptotic": "asymptotic",
}

_PSD_TOL = 1e-10
MIN_SIDE_ROWS = 20  # fewer rows than this on one side of a threshold is "thin"


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
        if self.var_model < 0 or self.var_all < 0:
            raise InputError("variances must be nonnegative")
        bound = math.sqrt(self.var_model * self.var_all)
        if abs(self.cov) > bound + 1e-12:
            raise InputError("covariance violates the Cauchy-Schwarz bound")
        if self.p_tp + self.p_fp > 1.0 + 1e-12 or self.p_tp > self.p0 + 1e-12:
            raise InputError("inconsistent classification probabilities")


def moments(sample: ValidationSample, t: Threshold) -> MomentSet:
    """Sample moments of ``(NB_model, NB_all)`` for the normal approximation.

    With c = z/(1-z) and P_TP, P_FP, P0 the flagged-event, flagged-non-event
    and event fractions:

        var_model = (1/n) [P_TP(1-P_TP) + c^2 P_FP(1-P_FP) + 2c P_TP P_FP]
        var_all   = (1/n) (1/(1-z))^2 P0(1-P0)
        cov       = (1/(n(1-z))) [(1-P0) P_TP + c P0 P_FP]
    """
    return _moment_grid(sample, (t,))[0]


def _moment_grid(sample: ValidationSample, thresholds) -> list[MomentSet]:
    """:func:`moments` at every threshold, from one table of counts."""
    if sample.n < 2:
        raise InputError("moment estimation requires n >= 2")
    n, events = sample.n, sample.n_events
    p0 = events / n
    tp_all, fp_all, _, _ = _cell_table(sample.outcomes, sample.risks, thresholds)()
    out = []
    for t, tp, fp in zip(thresholds, tp_all, fp_all):
        c = t.harm_weight
        p_tp, p_fp = float(tp) / n, float(fp) / n
        var_model = (p_tp * (1 - p_tp) + c * c * p_fp * (1 - p_fp) + 2 * c * p_tp * p_fp) / n
        var_all = p0 * (1 - p0) / (n * (1 - t.z) ** 2)
        cov = ((1 - p0) * p_tp + c * p0 * p_fp) / (n * (1 - t.z))
        out.append(MomentSet(
            mean_model=float(_net_benefit(tp, fp, c, n)),
            mean_all=float(_net_benefit(events, n - events, c, n)),
            var_model=var_model, var_all=var_all, cov=cov,
            n=n, p0=p0, p_tp=p_tp, p_fp=p_fp, threshold=t,
        ))
    return out


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


def relative_evpi(enb_perfect: float, mean_model: float, mean_all: float) -> float | None:
    """Ratio of the perfect-information gain over treat-all to the model's
    current-information gain over treat-all.

    Defined only when the model is the current best strategy with a strictly
    positive incremental NB; returns None otherwise.  Equals 1 when there is
    no decision uncertainty.
    """
    base = max(0.0, mean_all)
    best = max(0.0, mean_model, mean_all)
    denom = best - base
    if mean_model != best or denom <= 0.0:
        return None
    return (enb_perfect - base) / denom


def p_useful(draws: NbDrawMatrix) -> float:
    """Fraction of draws in which a model strategy has the strictly highest
    NB among {treat-none, treat-all, models}.  For the single-model case this
    is P(nb_model > max(0, nb_all)).  Ties resolve against the model:
    treat-none, then treat-all, then the model columns in order."""
    d = draws.draws
    stacked = np.column_stack([np.zeros(d.shape[0]), d[:, -1], d[:, :-1]])
    return float(np.mean(np.argmax(stacked, axis=1) >= 2))


def _best_by_means(mean_models: np.ndarray, mean_all: float) -> tuple[str, float]:
    """Current best strategy from expected NBs; ties resolve against the
    model (treat-none, then treat-all, then models)."""
    candidates = np.concatenate([[0.0, mean_all], mean_models])
    idx = int(np.argmax(candidates))
    label = ("treat_none", "treat_all")[idx] if idx < 2 else "model"
    return label, float(candidates[idx])


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
    best, enb_current = _best_by_means(mean_models, mean_all)
    evpi = max(0.0, enb_perfect - enb_current)
    r = relative_evpi(enb_perfect, float(mean_models.max()), mean_all) if best == "model" else None
    mc_se = float(row_max.std(ddof=1) / math.sqrt(d.shape[0]))
    return VoiResult(
        evpi=evpi, enb_current=enb_current, enb_perfect=enb_perfect,
        p_useful=p_useful(draws), best_strategy=best, method=_METHOD_LABELS[draws.method],
        r_evpi=r, mc_se=mc_se, seed=draws.seed, n_reps=d.shape[0],
    )


def _repair_psd(var_model: float, var_all: float, cov: float) -> tuple[float, float, float]:
    """Floor negative eigenvalues of the 2x2 covariance at zero; eigenvalues
    below -1e-10 cannot be attributed to rounding and raise."""
    sigma = np.array([[var_model, cov], [cov, var_all]])
    vals, vecs = np.linalg.eigh(sigma)
    if vals[0] < -_PSD_TOL:
        raise InputError(
            f"covariance matrix is not positive semidefinite (min eigenvalue {vals[0]:.3g})"
        )
    if vals[0] >= 0.0:
        return var_model, var_all, cov
    repaired = (vecs * np.maximum(vals, 0.0)) @ vecs.T
    return float(repaired[0, 0]), float(repaired[1, 1]), float(repaired[0, 1])


def _bvn_params(m: MomentSet) -> BvnParams:
    v1, v2, cv = _repair_psd(m.var_model, m.var_all, m.cov)
    s1, s2 = math.sqrt(v1), math.sqrt(v2)
    rho = 0.0 if s1 == 0.0 or s2 == 0.0 else min(1.0, max(-1.0, cv / (s1 * s2)))
    return BvnParams(mu1=m.mean_model, mu2=m.mean_all, sigma1=s1, sigma2=s2, rho=rho)


def evpi_asymptotic(m: MomentSet) -> VoiResult:
    """Closed-form EVPI under the bivariate normal approximation.

    Supports exactly one candidate model; the perfect-information term is
    the zero-floored bivariate normal expectation and P(useful) the
    probability that the model component is the strict positive maximum.
    """
    params = _bvn_params(m)
    enb_perfect = e_max_zero_bvn(params)
    best, enb_current = _best_by_means(np.array([m.mean_model]), m.mean_all)
    evpi = max(0.0, enb_perfect - enb_current)
    p_model = p_first_positive_max(params)
    r = relative_evpi(enb_perfect, m.mean_model, m.mean_all) if best == "model" else None
    return VoiResult(
        evpi=evpi, enb_current=enb_current, enb_perfect=enb_perfect,
        p_useful=p_model, best_strategy=best, method="asymptotic", r_evpi=r,
    )


def _thin_thresholds(sample: ValidationSample, thresholds) -> list[Threshold]:
    """Thresholds with fewer than ``MIN_SIDE_ROWS`` rows on one side."""
    tp, fp, _, _ = _cell_table(sample.outcomes, sample.risks, thresholds)()
    return [t for t, a in zip(thresholds, tp + fp) if min(a, sample.n - a) < MIN_SIDE_ROWS]


def evpi_threshold_sweep(
    sample: ValidationSample,
    thresholds,
    methods=ALL_METHODS,
    n_reps: int = 10_000,
    seed: int | tuple = 0,
    extra_risks=None,
    warn: bool = True,
) -> list[tuple[Threshold, VoiResult]]:
    """Per-threshold EVPI for each requested method.

    Bootstrap methods reuse one weight stream across the whole grid; the
    asymptotic route is evaluated independently at each threshold.  Rows
    come back in the order of ``thresholds`` (which may be unsorted), with
    methods in the order requested.
    """
    if isinstance(thresholds, Threshold):
        thresholds = (thresholds,)
    thresholds = tuple(thresholds)
    methods = tuple(methods)
    for m in methods:
        if m not in ALL_METHODS:
            raise InputError(f"unknown EVPI method {m!r}")
    if "asymptotic" in methods and extra_risks is not None:
        raise InputError("the asymptotic method supports exactly one candidate model")
    for t in _thin_thresholds(sample, thresholds) if warn else ():
        warnings.warn(
            f"fewer than {MIN_SIDE_ROWS} observations on one side of threshold {t.z:g}; "
            "estimates there are driven by a handful of rows",
            SmallEffectiveSampleWarning,
            stacklevel=2,
        )

    per_method: dict[str, list[VoiResult]] = {}
    for m in methods:
        if m == "asymptotic":
            per_method[m] = [evpi_asymptotic(ms) for ms in _moment_grid(sample, thresholds)]
        else:
            grid = bootstrap_nb_draws_grid(
                sample, thresholds, n_reps=n_reps, method=m, seed=seed,
                extra_risks=extra_risks,
            )
            per_method[m] = [evpi_bootstrap(grid.at(i)) for i in range(len(thresholds))]

    rows: list[tuple[Threshold, VoiResult]] = []
    for i, t in enumerate(thresholds):
        for m in methods:
            rows.append((t, per_method[m][i]))
    return rows


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
