"""Bootstrap weight generation and matrices of per-replicate net benefit draws.

Two resampling schemes weight the n observations of a validation sample:

* ``dirichlet`` -- flat Dirichlet(1, ..., 1) weights, drawn as n unit
  exponentials normalized by their sum.  A statistic of the re-weighted
  sample is a posterior draw of the corresponding population quantity
  under a non-informative prior (the Bayesian bootstrap).
* ``multinomial`` -- counts from n equiprobable draws with replacement,
  scaled by 1/n (the ordinary bootstrap).

Replicate ``l`` of a run keyed by ``seed`` always consumes the dedicated
random substream ``(seed, method_id, l)``, so results are independent of
worker count and evaluation order.  Weight vectors are drawn once per
replicate and reused across every threshold of a grid, keeping the
replicate curves internally coherent.

Replicates are evaluated one at a time, with no blocks or chunks: each
replicate's row weights are summed into the sample's per-threshold cells
(``netbenefit._cell_table``), so no result depends on the BLAS thread count
and ordinary-bootstrap cell sums are exact integers.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .errors import InputError
from .netbenefit import Threshold, ValidationSample, _cell_table, _net_benefit
from .rng import substream

METHOD_IDS = {"bayesian": 0, "ordinary": 1}
DATA_STREAM_ID = 2  # reserved for non-bootstrap consumers (data generation)

DEFAULT_N_REPS = 10_000       # single-dataset analyses
SWEEP_N_REPS = 1_000          # default inside simulation sweeps


@dataclass(frozen=True)
class WeightVector:
    """One bootstrap weight assignment for a sample of size n.

    ``counts`` holds the integer resample counts when the vector came from
    the multinomial scheme (``weights == counts / n``); it is None for
    Dirichlet draws.
    """

    weights: np.ndarray
    kind: str
    counts: np.ndarray | None = None

    def __post_init__(self):
        w = np.asarray(self.weights, dtype=float)
        w.flags.writeable = False
        object.__setattr__(self, "weights", w)
        if self.kind not in ("dirichlet", "multinomial"):
            raise InputError(f"unknown weight kind {self.kind!r}")
        if w.ndim != 1 or w.shape[0] < 1:
            raise InputError("weights must be a non-empty vector")
        if w.min() < 0.0:
            raise InputError("weights must be nonnegative")
        if abs(float(w.sum()) - 1.0) > 1e-12:
            raise InputError("weights must sum to 1 within 1e-12")
        if self.counts is not None:
            k = np.asarray(self.counts, dtype=np.int64)
            k.flags.writeable = False
            object.__setattr__(self, "counts", k)
            if int(k.sum()) != w.shape[0]:
                raise InputError("multinomial counts must sum to the sample size")

    @property
    def n(self) -> int:
        return self.weights.shape[0]


def _replicate_mass(n: int, method: str, rng: np.random.Generator):
    """One replicate's row weights and their total: flat-Dirichlet weights
    (n unit exponentials, normalized; total 1) for ``bayesian``, integer
    resample counts over n rows (total n) for ``ordinary``."""
    if method == "bayesian":
        e = rng.standard_exponential(n)
        return e / e.sum(), 1.0
    return np.bincount(rng.integers(0, n, size=n), minlength=n), n


def dirichlet_weights(n: int, rng: np.random.Generator) -> WeightVector:
    """Draw flat-Dirichlet weights (n unit exponentials, normalized)."""
    if n < 1:
        raise InputError("dirichlet_weights requires n >= 1")
    w, _ = _replicate_mass(n, "bayesian", rng)
    return WeightVector(weights=w, kind="dirichlet")


def multinomial_weights(n: int, rng: np.random.Generator) -> WeightVector:
    """Draw ordinary-bootstrap weights: resample counts over n cells, / n."""
    if n < 1:
        raise InputError("multinomial_weights requires n >= 1")
    counts, _ = _replicate_mass(n, "ordinary", rng)
    return WeightVector(weights=counts / n, kind="multinomial", counts=counts)


@dataclass(frozen=True)
class NbDrawMatrix:
    """Per-replicate net benefit draws at one threshold.

    ``draws`` has shape (N, S) with columns ordered
    ``[model_1, ..., model_M, treat_all]``; treat-none is the implicit zero
    column and is handled analytically downstream.  Under the Bayesian
    reading each row is a posterior draw of the true strategy NBs.
    """

    draws: np.ndarray
    method: str
    seed: int | tuple
    threshold: Threshold

    def __post_init__(self):
        d = np.asarray(self.draws, dtype=float)
        d.flags.writeable = False
        object.__setattr__(self, "draws", d)
        if d.ndim != 2 or d.shape[0] < 1 or d.shape[1] < 2:
            raise InputError("draw matrix must be N x S with N >= 1, S >= 2")
        if not np.isfinite(d).all():
            raise InputError("draw matrix entries must be finite")
        if self.method not in METHOD_IDS:
            raise InputError(f"unknown bootstrap method {self.method!r}")

    @property
    def n_reps(self) -> int:
        return self.draws.shape[0]

    @property
    def n_models(self) -> int:
        return self.draws.shape[1] - 1

    def strategy_names(self) -> list[str]:
        m = self.n_models
        names = ["model"] if m == 1 else [f"model_{j + 1}" for j in range(m)]
        return names + ["treat_all"]


@dataclass(frozen=True)
class GridDraws:
    """Replicate NB draws over a threshold grid, one weight stream shared
    by all thresholds.  ``draws`` has shape (N, T, S)."""

    draws: np.ndarray
    thresholds: tuple[Threshold, ...]
    method: str
    seed: int | tuple

    def at(self, index: int) -> NbDrawMatrix:
        return NbDrawMatrix(
            draws=self.draws[:, index, :], method=self.method,
            seed=self.seed, threshold=self.thresholds[index],
        )


def bootstrap_nb_draws_grid(
    sample: ValidationSample,
    thresholds,
    n_reps: int = DEFAULT_N_REPS,
    method: str = "bayesian",
    seed: int | tuple = 0,
    extra_risks=None,
) -> GridDraws:
    """Draw ``n_reps`` replicate NB vectors at every threshold of a grid.

    One weight vector per replicate, applied at all thresholds.  Output is a
    pure function of ``(sample, thresholds, n_reps, method, seed)``.
    """
    if isinstance(thresholds, Threshold):
        thresholds = (thresholds,)
    thresholds = tuple(thresholds)
    if n_reps < 1:
        raise InputError("n_reps must be >= 1")
    if method not in METHOD_IDS:
        raise InputError(f"unknown bootstrap method {method!r}; expected 'bayesian' or 'ordinary'")

    risk_cols = [sample.risks]
    if extra_risks is not None:
        extra = np.atleast_2d(np.asarray(extra_risks, dtype=float))
        if extra.shape[0] == sample.n and extra.shape[1] != sample.n:
            extra = extra.T
        if extra.shape[1] != sample.n:
            raise InputError("extra model risks must have one value per observation")
        if not np.isfinite(extra).all() or extra.min() < 0.0 or extra.max() > 1.0:
            raise InputError("extra model risks must lie in [0, 1]")
        risk_cols.extend(extra)
    tables = [_cell_table(sample.outcomes, r, thresholds) for r in risk_cols]
    c = np.array([t.harm_weight for t in thresholds])
    mid = METHOD_IDS[method]
    draws = np.empty((n_reps, len(thresholds), len(tables) + 1))
    for l in range(n_reps):
        mass, total = _replicate_mass(sample.n, method, substream(seed, mid, l))
        for s, sums in enumerate(tables):
            tp, fp, events, non_events = sums(mass)
            draws[l, :, s] = _net_benefit(tp, fp, c, total)
        draws[l, :, -1] = _net_benefit(events, non_events, c, total)
    return GridDraws(draws=draws, thresholds=thresholds, method=method, seed=seed)


def bootstrap_nb_draws(
    sample: ValidationSample,
    t: Threshold,
    n_reps: int = DEFAULT_N_REPS,
    method: str = "bayesian",
    seed: int | tuple = 0,
    extra_risks=None,
) -> NbDrawMatrix:
    """Draw the (n_reps, S) matrix of replicate NBs at a single threshold."""
    grid = bootstrap_nb_draws_grid(
        sample, (t,), n_reps=n_reps, method=method, seed=seed, extra_risks=extra_risks
    )
    return grid.at(0)


def dump_draws(matrix: NbDrawMatrix, path) -> None:
    """Write one replicate per line as comma-separated full-precision text."""
    names = matrix.strategy_names()
    with open(path, "w", encoding="utf-8") as fh:
        fh.write(",".join(["nb_" + n for n in names]) + "\n")
        for row in matrix.draws:
            fh.write(",".join(repr(float(v)) for v in row) + "\n")
