"""Net benefit estimators and decision curves.

Net benefit (NB) at a risk threshold ``z`` weighs true positives against
false positives at the exchange rate z/(1-z) implied by the threshold:

    NB_model = (1/n) * sum_i I(risk_i >= z) * (Y_i - (1 - Y_i) * z/(1-z))
    NB_all   = (1/n) * sum_i (Y_i - (1 - Y_i) * z/(1-z))
    NB_none  = 0

Classification is inclusive at the threshold: ``risk == z`` counts as
treated.  All estimators are plain sample means, so they remain
well-defined for degenerate samples (all events or all non-events).

``_CellTable`` alone knows how rows fall into cells over a threshold grid
(a ``_Grid``, which bins a risk by table lookup).  Each analysis builds one
table: point estimates, moments and thin-side checks read its row-count
sums, and the bootstrap (``resample._nb_blocks``) draws masses on the same
table's cells and asks it for their sums.  EVPI reduces those draws block
by block, and a decision curve's bands come from ``resample._table_bands``,
which holds the replicates' event and non-event masses and, per threshold,
only the smallest and largest model NBs that its quantiles read: neither
holds the ``(N, T, 2)`` draws.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field

import numpy as np

from .errors import InputError
from .rng import _check_seed

DEFAULT_MAX_THRESHOLD = 0.99
WEIGHT_SUM_TOL = 1e-8  # |sum(weights) - 1| allowed; rounding n weights costs < n * 1.2e-16
_BIN_SCALES = tuple(2 ** k for k in range(10, 17))  # the bin lookup's M, smallest first


def _real(value, what: str) -> float:
    """A number as a Python float: an int or a float, numpy's included, not
    a bool or a string; ``what`` names the value in the error."""
    if isinstance(value, bool) or not isinstance(value, (int, float, np.integer, np.floating)):
        raise InputError(f"{what} must be a number, got {value!r}")
    return float(value)


def _whole(value, what: str) -> int:
    """A whole number as a Python int: an int, or an integral float (numpy's
    included), not a bool, a fraction or a string; ``what`` names the value
    in the error."""
    if isinstance(value, bool) or not (
            isinstance(value, (int, np.integer))
            or isinstance(value, (float, np.floating)) and float(value).is_integer()):
        raise InputError(f"{what} must be a whole number, got {value!r}")
    return int(value)


@dataclass(frozen=True)
class Threshold:
    """A decision threshold ``z`` strictly inside (0, 1), kept as a Python
    float, like ``max_z``; both must be ints or floats, not bools.

    Thresholds at or above ``max_z`` (default 0.99) are rejected because the
    false-positive weight z/(1-z) blows up; pass a larger ``max_z`` to
    override.
    """

    z: float
    max_z: float = field(default=DEFAULT_MAX_THRESHOLD, compare=False)

    def __post_init__(self):
        object.__setattr__(self, "z", _real(self.z, "threshold"))
        object.__setattr__(self, "max_z", _real(self.max_z, "the threshold cap max_z"))
        if math.isnan(self.max_z):
            raise InputError("the threshold cap max_z must be a number, got nan")
        if not 0.0 < self.z < 1.0:
            raise InputError(f"threshold must lie strictly inside (0, 1), got {self.z}")
        if self.z >= self.max_z:
            raise InputError(
                f"threshold {self.z} >= {self.max_z}; the false-positive weight "
                "z/(1-z) is considered unstable there (raise max_z to override)"
            )

    @property
    def harm_weight(self) -> float:
        """Relative weight z/(1-z) of a false positive vs a true positive."""
        return self.z / (1.0 - self.z)


def make_thresholds(values, max_z: float = DEFAULT_MAX_THRESHOLD) -> tuple[Threshold, ...]:
    """Build a strictly increasing tuple of thresholds from an iterable of
    numbers, not a string (a :class:`Threshold` among them is kept as is)."""
    if isinstance(values, str) or not hasattr(values, "__iter__"):
        raise InputError(f"a threshold grid must be a sequence of numbers, got {values!r}")
    ts = tuple(v if isinstance(v, Threshold) else Threshold(v, max_z=max_z) for v in values)
    if not ts:
        raise InputError("threshold grid must be non-empty")
    zs = [t.z for t in ts]
    if any(b <= a for a, b in zip(zs, zs[1:])):
        raise InputError("threshold grid must be strictly increasing")
    return ts


def default_grid() -> tuple[Threshold, ...]:
    """Default decision-curve grid: 0.001 to 0.200 in steps of 0.001."""
    return make_thresholds(np.arange(1, 201) / 1000.0)


class ValidationSample:
    """Paired binary outcomes and predicted risks from a validation dataset.

    Parameters
    ----------
    outcomes : array-like of {0, 1}
    risks : array-like of floats in [0, 1], same length

    Both must be real numbers: complex, timedelta and datetime values are
    refused, whatever they hold.
    """

    __slots__ = ("outcomes", "risks")

    def __init__(self, outcomes, risks):
        y, p = np.asarray(outcomes), np.asarray(risks)
        for values, what in ((y, "outcomes"), (p, "risks")):
            if values.dtype.kind in "cmM":
                raise InputError(f"{what} must be real numbers, got {values.dtype} values")
        try:
            p = np.array(p, dtype=float)  # copy: the sample owns its storage
        except (TypeError, ValueError):  # an object or string array of other things
            raise InputError("risks must be real numbers") from None
        if y.ndim != 1 or p.ndim != 1:
            raise InputError("outcomes and risks must be one-dimensional")
        if y.shape[0] != p.shape[0]:
            raise InputError(
                f"outcomes (n={y.shape[0]}) and risks (n={p.shape[0]}) differ in length"
            )
        if y.shape[0] < 1:
            raise InputError("sample must contain at least one observation")
        if not ((y == 0) | (y == 1)).all():
            raise InputError("outcomes must be binary 0/1")
        if not np.isfinite(p).all() or p.min() < 0.0 or p.max() > 1.0:
            raise InputError("risks must lie in [0, 1]")
        try:
            y = y.astype(np.int64)
        except TypeError:  # an object array of complex zeros and ones
            raise InputError("outcomes must be real numbers") from None
        y.flags.writeable = False
        p.flags.writeable = False
        object.__setattr__(self, "outcomes", y)
        object.__setattr__(self, "risks", p)

    def __setattr__(self, name, value):
        raise AttributeError("ValidationSample is immutable")

    def __reduce__(self):
        return (ValidationSample, (self.outcomes, self.risks))

    @property
    def n(self) -> int:
        return self.outcomes.shape[0]

    @property
    def n_events(self) -> int:
        return int(self.outcomes.sum())

    @property
    def prevalence(self) -> float:
        return self.n_events / self.n

    def __repr__(self):
        return f"ValidationSample(n={self.n}, events={self.n_events})"


class _Grid:
    """A threshold grid (as :func:`make_thresholds` takes it, or one bare
    :class:`Threshold`) and its bins: a risk's bin is the number of grid
    thresholds at or below it, ``searchsorted(zs, risk, side="right")``.

    :meth:`bins` finds it by table lookup: with ``j = int(risk * M)``, the
    bin is ``base[j] + (risk >= inner[j])``.  ``base[j]`` counts the
    thresholds at or below ``j/M`` and ``inner[j]`` is the one threshold
    strictly inside ``[j/M, (j+1)/M)``, or infinity.  ``M`` is the smallest
    power of two from 2**10 to 2**16 that leaves at most one threshold
    strictly inside each such interval; a grid that none separates is binned
    by ``np.searchsorted``.  The lookup is exact for risks in [0, 1], as a
    :class:`ValidationSample` holds them: multiplying by a power of two
    rounds nothing there, so ``j`` is exactly the floor of ``risk * M``,
    and the one compare is the ``z <= risk`` that ``searchsorted`` makes.
    """

    __slots__ = ("thresholds", "zs", "harm_weight", "width", "_scale", "_base", "_inner")

    def __init__(self, grid):
        self.thresholds = make_thresholds((grid,) if isinstance(grid, Threshold) else grid)
        self.zs = np.array([t.z for t in self.thresholds])
        self.harm_weight = self.zs / (1.0 - self.zs)
        self.width = self.zs.size + 1
        self._scale = None
        for scale in _BIN_SCALES:
            edges = self.zs * scale
            cells = np.floor(edges)
            inside = edges != cells  # strictly inside an interval, not on its left edge
            if (np.diff(cells[inside]) > 0).all():
                self._scale = scale
                self._base = np.searchsorted(self.zs, np.arange(scale + 1) / scale, side="right")
                self._inner = np.full(scale + 1, np.inf)
                self._inner[cells[inside].astype(np.intp)] = self.zs[inside]
                break

    def bins(self, risks: np.ndarray) -> np.ndarray:
        """The bin of each of ``risks``, finite and in [0, 1]."""
        if self._scale is None:
            return np.searchsorted(self.zs, risks, side="right")
        j = (risks * self._scale).astype(np.intp)
        bins = self._base[j]
        bins += risks >= self._inner[j]
        return bins


class _CellTable:
    """The occupied cells of a validated sample's ``outcomes`` and
    ``risks`` arrays over a threshold grid (a :class:`_Grid`, or anything
    it takes), and the per-threshold sums of masses on them.

    A row's label is its outcome times ``width`` (T + 1) plus its bin, the
    number of grid thresholds at or below its risk (:meth:`_Grid.bins`);
    the row is flagged (``risk >= z``) at the j-th threshold exactly when
    that number exceeds j.  A cell is a label that some row carries; its
    rows add the same amount to every net benefit on the grid.  Cells are
    ordered by label, whatever the row order: ``cell_counts`` (K,) holds
    their row counts and ``cell_labels`` (K,) their labels.  ``counts`` is
    ``(tp, fp, events, non_events)`` of the row counts.
    """

    __slots__ = ("thresholds", "harm_weight", "width", "cell_counts", "cell_labels", "counts")

    def __init__(self, outcomes: np.ndarray, risks: np.ndarray, grid):
        grid = grid if isinstance(grid, _Grid) else _Grid(grid)
        self.thresholds, self.harm_weight, self.width = grid.thresholds, grid.harm_weight, grid.width
        labels = outcomes * self.width + grid.bins(risks)
        rows = np.bincount(labels, minlength=2 * self.width)
        seen = rows > 0
        self.cell_labels, self.cell_counts = np.flatnonzero(seen), rows[seen]
        self.counts = self.sums(self.cell_counts)

    def sums(self, masses: np.ndarray):
        """``(tp, fp, events, non_events)`` from ``masses`` of shape
        ``(..., K)`` on the cells: the flagged-event and flagged-non-event
        mass at each threshold of the grid (shape ``(..., T)``) and the
        total event and non-event mass (shape ``(...)``).  ``tp`` and ``fp``
        are views of one cumulative sum, not copies, taken in place.
        """
        lead = masses.shape[:-1]
        cells = np.zeros(lead + (2 * self.width,))
        cells[..., self.cell_labels] = masses  # one cell per label: no sums
        # tail[..., y, k]: outcome-y cells with bins k..T
        tail = cells.reshape(lead + (2, self.width))[..., ::-1]
        np.cumsum(tail, axis=-1, out=tail)
        tail = tail[..., ::-1]
        return tail[..., 1, 1:], tail[..., 0, 1:], tail[..., 1, 0], tail[..., 0, 0]


def _net_benefit(tp, fp, harm_weight, total):
    """``(tp - c * fp) / total``, the NB formula of point estimates and
    draws; over arrays, the three steps share one buffer."""
    nb = np.multiply(harm_weight, fp)
    if nb.ndim == 0:
        return (tp - nb) / total
    np.subtract(tp, nb, out=nb)
    return np.divide(nb, total, out=nb)


def nb_model(sample: ValidationSample, t: Threshold) -> float:
    """Net benefit of treating those with ``risk >= z``."""
    tp, fp, _, _ = _CellTable(sample.outcomes, sample.risks, t).counts
    return float(_net_benefit(tp[0], fp[0], t.harm_weight, sample.n))


def nb_all(sample: ValidationSample, t: Threshold) -> float:
    """Net benefit of treating everyone: prevalence - (1-prevalence)*z/(1-z)."""
    events = sample.n_events
    return float(_net_benefit(events, sample.n - events, t.harm_weight, sample.n))


def weighted_nb(sample: ValidationSample, weights, t: Threshold) -> tuple[float, float]:
    """Observation-reweighted ``(nb_model, nb_all)``, row by row: the
    reference the threshold-table code is checked against.

    ``weights`` is a :class:`~nbvoi.resample.WeightVector` or a bare array of
    non-negative weights of length n summing to 1.  A multinomial weight
    vector (one carrying integer resample counts) is evaluated from its
    counts, so its result is bit-identical to computing
    ``nb_model``/``nb_all`` on the materialized resample.
    """
    counts = getattr(weights, "counts", None)
    w = np.asarray(getattr(weights, "weights", weights), dtype=float)
    if w.shape != (sample.n,):
        raise InputError(
            f"weight vector length {w.shape} does not match sample size {sample.n}"
        )
    if w.min() < 0.0:
        raise InputError("weights must be nonnegative")
    total = float(w.sum())
    if abs(total - 1.0) > WEIGHT_SUM_TOL:
        raise InputError(f"weights must sum to 1 within {WEIGHT_SUM_TOL:g}, got {total!r}")

    events = sample.outcomes == 1
    flagged = sample.risks >= t.z
    c = t.harm_weight
    if counts is not None:
        k = np.asarray(counts)
        m, n_ev = int(k.sum()), int(k[events].sum())
        tp, fp = int(k[flagged & events].sum()), int(k[flagged & ~events].sum())
        return float(_net_benefit(tp, fp, c, m)), float(_net_benefit(n_ev, m - n_ev, c, m))
    a = np.where(events, 1.0, -c)
    return float(np.dot(w, np.where(flagged, a, 0.0))), float(np.dot(w, a))


@dataclass(frozen=True)
class DecisionCurve:
    """Net benefit of model / treat-all / treat-none over a threshold grid.

    ``model_ci`` and ``all_ci`` are percentile bootstrap bands of shape
    (T, 2), present when ``n_boot > 0``.  ``degenerate`` flags thresholds at
    which no observation reaches the threshold, where the model NB is 0 in
    every replicate and the interval collapses to a point.
    """

    thresholds: tuple[Threshold, ...]
    nb_model: np.ndarray
    nb_all: np.ndarray
    ci_level: float
    n_boot: int
    method: str | None = None
    seed: int | None = None
    model_ci: np.ndarray | None = None
    all_ci: np.ndarray | None = None
    degenerate: np.ndarray | None = None

    def __post_init__(self):
        object.__setattr__(self, "thresholds", make_thresholds(self.thresholds))
        for ci in (self.model_ci, self.all_ci):
            if ci is not None and np.any(ci[:, 0] > ci[:, 1]):
                raise InputError("confidence bounds must satisfy lower <= upper")

    @property
    def has_ci(self) -> bool:
        return self.model_ci is not None

    def to_records(self) -> list[dict]:
        """Rows for serialization, one per threshold."""
        rows = []
        for i, t in enumerate(self.thresholds):
            row = {
                "threshold": t.z,
                "nb_model": float(self.nb_model[i]),
                "nb_all": float(self.nb_all[i]),
                "nb_none": 0.0,
            }
            if self.has_ci:
                row["nb_model_lo"] = float(self.model_ci[i, 0])
                row["nb_model_hi"] = float(self.model_ci[i, 1])
                row["nb_all_lo"] = float(self.all_ci[i, 0])
                row["nb_all_hi"] = float(self.all_ci[i, 1])
                row["degenerate"] = bool(self.degenerate[i])
            rows.append(row)
        return rows


def decision_curve(
    sample: ValidationSample,
    grid,
    n_boot: int = 10_000,
    ci_level: float = 0.95,
    method: str = "ordinary",
    seed: int = 0,
) -> DecisionCurve:
    """Decision curve with optional percentile bootstrap confidence bands.

    Point estimates come from the original sample.  When ``n_boot > 0``, one
    shared stream of ``n_boot`` bootstrap replicates is evaluated at every
    grid threshold (each replicate re-weights the whole curve), and the
    per-threshold CI is the percentile interval of the replicate NBs.
    ``n_boot = 0`` disables the bands entirely; ``n_boot`` must still be a
    whole number, and ``method`` ``'bayesian'`` or ``'ordinary'``.
    """
    ci_level = _real(ci_level, "ci_level")
    if not 0.0 < ci_level < 1.0:
        raise InputError("ci_level must lie in (0, 1)")
    n_boot = _whole(n_boot, "n_boot")
    if n_boot < 0:
        raise InputError("n_boot must be >= 0")
    from .resample import _check_method, _table_bands

    _check_method(method)
    _check_seed(seed)

    table = _CellTable(sample.outcomes, sample.risks, grid)
    ts = table.thresholds
    tp, fp, events, non_events = table.counts
    point_model = _net_benefit(tp, fp, table.harm_weight, sample.n)
    point_all = _net_benefit(events, non_events, table.harm_weight, sample.n)

    if n_boot == 0:
        return DecisionCurve(
            thresholds=ts, nb_model=point_model, nb_all=point_all,
            ci_level=ci_level, n_boot=0,
        )

    model_q, all_q = _table_bands(table, n_boot, method, seed,
                                  [0.5 * (1.0 - ci_level), 0.5 * (1.0 + ci_level)])
    degenerate = tp + fp == 0
    return DecisionCurve(
        thresholds=ts, nb_model=point_model, nb_all=point_all,
        ci_level=ci_level, n_boot=n_boot, method=method, seed=seed,
        model_ci=model_q.T, all_ci=all_q.T, degenerate=degenerate,
    )
