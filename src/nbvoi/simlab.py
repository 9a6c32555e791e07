"""Simulation studies: synthetic logistic data generation, sample-size
sweeps, without-replacement subsampling sweeps, and sanity metrics.

A sweep runs ``n_sims`` independent outer simulations at each sample size.
Each simulation builds a validation sample (synthetic draw or subsample),
computes EVPI per method and threshold, and the sweep reports the mean and
Monte Carlo standard error over simulations.  The random substream of
cell ``(size_index, sim_index)`` depends only on the sweep seed and those
indices.  Cells run in fixed chunks of ``max(1, _PASS_ENTRIES // T)``,
sized from the grid alone; each cell builds its table, runs the bootstrap
methods and keeps its counts, and the asymptotic method and the thin masks
are one pass over the chunk's stacked counts.  Chunks are embarrassingly
parallel, and that pass is elementwise, so neither the worker count nor the
chunking changes results; only a pool of workers loads multiprocessing.
"""

from __future__ import annotations

from contextlib import nullcontext
from dataclasses import dataclass
from functools import partial

import numpy as np

from .errors import InputError
from .io import _expit
from .netbenefit import Threshold, ValidationSample, _CellTable, _real, _whole, make_thresholds
from .resample import DATA_STREAM_ID, SWEEP_N_REPS
from .rng import _check_seed, substream
from .voi import (_METHOD_LABELS, ALL_METHODS, _asymptotic_columns, _check_methods, _evpi_grid,
                  _moment_grid, _thin_mask, _warn_thin)

_PASS_ENTRIES = 512  # (cell, threshold) entries per asymptotic kernel pass: ~0.5 MB of temporaries


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
        return _expit(self.intercept + x @ np.asarray(self.slopes))


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
        object.__setattr__(self, "sizes",
                           tuple(_whole(s, "config field 'sizes'") for s in self.sizes))
        for name in ("n_sims", "n_reps", "seed", "n_workers"):
            object.__setattr__(self, name, _whole(getattr(self, name), f"config field {name!r}"))
        _check_seed(self.seed)
        object.__setattr__(self, "thresholds", make_thresholds(self.thresholds))
        object.__setattr__(self, "methods", _check_methods(self.methods))
        if not self.sizes or any(b <= a for a, b in zip(self.sizes, self.sizes[1:])):
            raise InputError("sizes must be a non-empty strictly increasing sequence")
        if self.sizes[0] < 1:
            raise InputError("sizes must be positive")
        if self.n_sims < 1 or self.n_reps < 1:
            raise InputError("n_sims and n_reps must be >= 1")
        if self.n_reps < 2 and set(self.methods) != {"asymptotic"}:
            raise InputError("config field 'n_reps' must be >= 2 for a bootstrap method")
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


def _sweep_chunk(cells, dgm, dataset, cfg: SweepConfig):
    """The (cells, methods, T) EVPI and (cells, T) thin masks of a chunk of
    cells.  Each cell draws its sample from its data substream, builds its
    one table and runs the bootstrap methods on it; the asymptotic column
    and the thin masks come from one pass over the cells' stacked counts."""
    boot = [k for k, m in enumerate(cfg.methods) if m != "asymptotic"]
    asym = [k for k, m in enumerate(cfg.methods) if m == "asymptotic"]
    evpi = np.empty((len(cells), len(cfg.methods), len(cfg.thresholds)))
    counts = []
    for c, (si, sim) in enumerate(cells):
        size = cfg.sizes[si]
        data_rng = substream((cfg.seed, si, sim), DATA_STREAM_ID)
        sample = generate_synthetic(dgm, size, data_rng) if dgm is not None else dataset
        rows = slice(None) if size == sample.n else data_rng.choice(sample.n, size, replace=False)
        table = _CellTable(sample.outcomes[rows], sample.risks[rows], cfg.thresholds)
        results = _evpi_grid(table, [cfg.methods[k] for k in boot], cfg.n_reps, (cfg.seed, si, sim))
        for k, result in zip(boot, results):
            evpi[c, k] = result.evpi
        counts.append(table.counts)
    counts = [np.array(a) for a in zip(*counts)]
    if asym:
        grid = _moment_grid(counts, cfg.thresholds)
        evpi[:, asym] = _asymptotic_columns(grid).evpi.reshape(len(cells), 1, -1)
    return evpi, _thin_mask(counts)


def _run_sweep(dgm, dataset, cfg: SweepConfig) -> SweepResult:
    # Fixed chunks of cells, sized from the grid alone: each is one kernel
    # pass of about _PASS_ENTRIES (cell, threshold) entries, and neither the
    # worker count nor the batching of chunks to processes changes which
    # cells share a pass.
    cells = [(si, sim) for si in range(len(cfg.sizes)) for sim in range(cfg.n_sims)]
    step = max(1, _PASS_ENTRIES // len(cfg.thresholds))
    chunks = [cells[i:i + step] for i in range(0, len(cells), step)]
    worker = partial(_sweep_chunk, dgm=dgm, dataset=dataset, cfg=cfg)
    n_sizes, n_sims, n_t = len(cfg.sizes), cfg.n_sims, len(cfg.thresholds)
    # Simulations last and contiguous: each cell's mean and SD take numpy's
    # pairwise sum over its simulations in order.
    by_sim = np.empty((n_sizes, len(cfg.methods), n_t, n_sims))
    thin = np.zeros((n_sizes, n_t), dtype=bool)
    if cfg.n_workers > 1:  # multiprocessing loads only for a pool
        from concurrent.futures import ProcessPoolExecutor
    with ProcessPoolExecutor(cfg.n_workers) if cfg.n_workers > 1 else nullcontext() as pool:
        batch = max(1, len(chunks) // (4 * cfg.n_workers))
        results = pool.map(worker, chunks, chunksize=batch) if pool else map(worker, chunks)
        for chunk, (evpi, mask) in zip(chunks, results):
            for (si, sim), e, m in zip(chunk, evpi, mask):
                by_sim[si, ..., sim] = e
                thin[si] |= m
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
