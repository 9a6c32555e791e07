"""Simulation studies: synthetic logistic data generation, sample-size
sweeps, without-replacement subsampling sweeps, and sanity metrics.

A sweep runs ``n_sims`` independent outer simulations at each sample size.
Each simulation builds a validation sample (synthetic draw or subsample),
computes EVPI per method and threshold, and the sweep reports the mean and
Monte Carlo standard error over simulations.  Cells are embarrassingly
parallel; the random substream of cell ``(size_index, sim_index)`` depends
only on the sweep seed and those indices, so worker count never changes
results.
"""

from __future__ import annotations

from concurrent.futures import ProcessPoolExecutor
from dataclasses import dataclass
from functools import partial

import numpy as np

from .errors import InputError
from .netbenefit import Threshold, ValidationSample, _CellTable, _real, make_thresholds
from .resample import DATA_STREAM_ID, SWEEP_N_REPS
from .rng import _check_seed, substream
from .voi import _METHOD_LABELS, ALL_METHODS, _check_methods, _evpi_grid, _thin_mask, _warn_thin


@dataclass(frozen=True)
class LogisticDgm:
    """Logistic outcome model over i.i.d. standard normal covariates:
    logit P(Y=1 | X) = intercept + slopes . X.  ``slopes`` is a list, tuple
    or 1-D array; each coefficient is an int or a float, not a bool."""

    intercept: float
    slopes: tuple[float, ...]

    def __post_init__(self):
        if not isinstance(self.slopes, (list, tuple, np.ndarray)):
            raise InputError(f"dgm field 'slopes' must be a sequence of numbers, "
                             f"got {self.slopes!r}")
        object.__setattr__(self, "intercept", _real(self.intercept, "dgm field 'intercept'"))
        object.__setattr__(self, "slopes", tuple(_real(s, "dgm field 'slopes'")
                                                 for s in self.slopes))
        if len(self.slopes) == 0:
            raise InputError("at least one slope is required")
        if not np.isfinite((self.intercept, *self.slopes)).all():
            raise InputError("coefficients must be finite")

    def risks(self, x: np.ndarray) -> np.ndarray:
        from scipy.special import expit

        return expit(self.intercept + x @ np.asarray(self.slopes))


def generate_synthetic(dgm: LogisticDgm, n: int, rng: np.random.Generator) -> ValidationSample:
    """Simulate a validation sample whose predicted risks are the true
    conditional probabilities (the model under validation is correct)."""
    if n < 1:
        raise InputError("sample size must be >= 1")
    x = rng.standard_normal((n, len(dgm.slopes)))
    risks = dgm.risks(x)
    y = (rng.random(n) < risks).astype(np.int64)
    return ValidationSample(y, risks)


def c_statistic(sample: ValidationSample) -> float:
    """Probability a random event outranks a random non-event (ties count
    half); the Mann-Whitney form of the c-statistic."""
    n1 = sample.n_events
    n0 = sample.n - n1
    if n1 == 0 or n0 == 0:
        raise InputError("c-statistic requires at least one event and one non-event")
    # Mann-Whitney U by counting: each event beats the non-events below its
    # risk and ties the ones equal to it.  2U is an integer, so this is exact.
    events = sample.risks[sample.outcomes == 1]
    non_events = np.sort(sample.risks[sample.outcomes == 0])
    twice_u = int(np.searchsorted(non_events, events, side="left").sum()
                  + np.searchsorted(non_events, events, side="right").sum())
    return twice_u / (2 * n1 * n0)


def true_nb_of_dgm(
    dgm: LogisticDgm,
    t: Threshold,
    n_mc: int = 1_000_000,
    *,
    rng: np.random.Generator,
    strategy: str = "model",
) -> float:
    """Monte Carlo estimate of the population net benefit of a strategy
    under the data-generating mechanism.

    The outcome is integrated out analytically given the covariates, so the
    only Monte Carlo error comes from the covariate draw.
    """
    if n_mc < 1:
        raise InputError("n_mc must be >= 1")
    if strategy == "none":
        return 0.0
    x = rng.standard_normal((n_mc, len(dgm.slopes)))
    pi = dgm.risks(x)
    c = t.harm_weight
    payoff = pi - (1.0 - pi) * c
    if strategy == "model":
        return float(np.mean(np.where(pi >= t.z, payoff, 0.0)))
    if strategy == "all":
        return float(np.mean(payoff))
    raise InputError(f"unknown strategy {strategy!r}")


def doubling_sizes(max_size: int, start: int = 250) -> tuple[int, ...]:
    """Default sweep ladder: ``start`` doubling each step, ending at
    ``max_size`` itself."""
    if max_size < 1 or start < 1:
        raise InputError("sizes must be positive")
    if start >= max_size:
        return (max_size,)
    sizes = []
    s = start
    while s < max_size:
        sizes.append(s)
        s *= 2
    sizes.append(max_size)
    return tuple(sizes)


def _whole(value, field: str) -> int:
    """A whole-number config value: an int, or an integral float (numpy's
    included).  A fraction, a bool, a string or any other type is an input
    error."""
    if isinstance(value, bool) or not (
            isinstance(value, (int, np.integer))
            or isinstance(value, (float, np.floating)) and float(value).is_integer()):
        raise InputError(f"config field {field!r} must be a whole number, got {value!r}")
    return int(value)


@dataclass(frozen=True)
class SweepConfig:
    """Protocol of a sample-size sweep; integer fields take whole numbers,
    and ``thresholds`` a grid as :func:`make_thresholds` takes it."""

    sizes: tuple[int, ...]
    thresholds: tuple[Threshold, ...]
    n_sims: int = 100
    n_reps: int = SWEEP_N_REPS
    methods: tuple[str, ...] = ALL_METHODS
    seed: int = 0
    n_workers: int = 1

    def __post_init__(self):
        object.__setattr__(self, "sizes", tuple(_whole(s, "sizes") for s in self.sizes))
        for name in ("n_sims", "n_reps", "seed", "n_workers"):
            object.__setattr__(self, name, _whole(getattr(self, name), name))
        _check_seed(self.seed)
        object.__setattr__(self, "thresholds", make_thresholds(self.thresholds))
        object.__setattr__(self, "methods", _check_methods(self.methods))
        if not self.sizes or any(b <= a for a, b in zip(self.sizes, self.sizes[1:])):
            raise InputError("sizes must be a non-empty strictly increasing sequence")
        if self.sizes[0] < 1:
            raise InputError("sizes must be positive")
        if self.n_sims < 1 or self.n_reps < 1:
            raise InputError("n_sims and n_reps must be >= 1")
        if self.n_workers < 1:
            raise InputError("n_workers must be >= 1")


@dataclass(frozen=True)
class SweepRow:
    """Aggregated EVPI for one (size, threshold, method) sweep cell."""

    size: int
    threshold: float
    method: str
    mean_evpi: float
    mc_se: float
    n_sims: int

    def __post_init__(self):
        if self.mean_evpi < 0 or self.mc_se < 0:
            raise InputError("mean EVPI and its standard error must be nonnegative")


@dataclass(frozen=True)
class SweepResult:
    rows: tuple[SweepRow, ...]

    def row(self, size: int, threshold: float, method: str) -> SweepRow:
        for r in self.rows:
            if r.size == size and r.method == method and abs(r.threshold - threshold) < 1e-12:
                return r
        raise KeyError((size, threshold, method))


def _sweep_cell(cell, dgm, dataset, cfg: SweepConfig):
    """Compute one (size_index, sim_index) cell: the (methods, thresholds)
    EVPI array and the mask of thresholds with a thin side of the split."""
    si, sim = cell
    size = cfg.sizes[si]
    data_rng = substream((cfg.seed, si, sim), DATA_STREAM_ID)
    sample = generate_synthetic(dgm, size, data_rng) if dgm is not None else dataset
    rows = slice(None) if size == sample.n else data_rng.choice(sample.n, size, replace=False)
    table = _CellTable(sample.outcomes[rows], sample.risks[rows], cfg.thresholds)
    columns = _evpi_grid(table, cfg.methods, cfg.n_reps, (cfg.seed, si, sim))
    return np.array([c.evpi for c in columns]), _thin_mask(table)


def _run_sweep(dgm, dataset, cfg: SweepConfig) -> SweepResult:
    cells = [(si, sim) for si in range(len(cfg.sizes)) for sim in range(cfg.n_sims)]
    worker = partial(_sweep_cell, dgm=dgm, dataset=dataset, cfg=cfg)
    if cfg.n_workers > 1:
        chunk = max(1, len(cells) // (4 * cfg.n_workers))
        with ProcessPoolExecutor(max_workers=cfg.n_workers) as ex:
            results = list(ex.map(worker, cells, chunksize=chunk))
    else:
        results = [worker(c) for c in cells]

    n_sizes, n_sims, n_t = len(cfg.sizes), cfg.n_sims, len(cfg.thresholds)
    evpi = np.array([e for e, _ in results]).reshape(n_sizes, n_sims, len(cfg.methods), n_t)
    thin = np.array([m for _, m in results]).reshape(n_sizes, n_sims, n_t).any(axis=1)
    # Simulations last and contiguous: each cell's mean and SD take numpy's
    # pairwise sum over its simulations in order.
    by_sim = np.ascontiguousarray(np.moveaxis(evpi, 1, -1))
    means = by_sim.mean(axis=-1).tolist()
    ses = (by_sim.std(axis=-1, ddof=1) / np.sqrt(n_sims) if n_sims > 1
           else np.zeros(by_sim.shape[:-1])).tolist()
    labels = [_METHOD_LABELS[m] for m in cfg.methods]
    rows = tuple(
        SweepRow(size=size, threshold=t.z, method=label, mean_evpi=means[si][k][j],
                 mc_se=ses[si][k][j], n_sims=n_sims)
        for si, size in enumerate(cfg.sizes)
        for j, t in enumerate(cfg.thresholds)
        for k, label in enumerate(labels)
    )
    thin_cells = sorted({(size, t.z) for si, size in enumerate(cfg.sizes)
                         for t, m in zip(cfg.thresholds, thin[si].tolist()) if m})
    _warn_thin([f"({size}, {z:g})" for size, z in thin_cells], stacklevel=3,
               where="the threshold in at least one simulation, at (size, threshold)", note="")
    return SweepResult(rows=rows)


def synthetic_sweep(dgm: LogisticDgm, cfg: SweepConfig) -> SweepResult:
    """EVPI versus sample size for synthetic data from ``dgm``: each cell
    generates a fresh sample of the given size and computes EVPI per method
    and threshold."""
    return _run_sweep(dgm, None, cfg)


def subsample_sweep(dataset: ValidationSample, cfg: SweepConfig) -> SweepResult:
    """EVPI versus sample size over without-replacement subsets of a
    user-supplied dataset.  A size equal to the full dataset uses the whole
    dataset deterministically."""
    if cfg.sizes[-1] > dataset.n:
        raise InputError(
            f"largest sweep size {cfg.sizes[-1]} exceeds the dataset size {dataset.n}"
        )
    return _run_sweep(None, dataset, cfg)
