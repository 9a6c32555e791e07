"""Bootstrap weights and matrices of per-replicate net benefit draws.

Two resampling schemes weight the n observations of a validation sample:

* ``dirichlet`` -- flat Dirichlet(1, ..., 1) weights, drawn as n unit
  exponentials normalized by their sum.  A statistic of the re-weighted
  sample is a posterior draw of the corresponding population quantity
  under a non-informative prior (the Bayesian bootstrap).
* ``multinomial`` -- counts from n equiprobable draws with replacement,
  scaled by 1/n (the ordinary bootstrap).

``dirichlet_weights``, ``multinomial_weights`` and
``netbenefit.weighted_nb`` apply them row by row; they are the reference.
The grid bootstrap never draws a row weight.  Over a threshold grid, a
replicate's net benefits depend on the rows only through the mass on each
occupied cell of a ``netbenefit._CellTable``, which owns the cells and
turns cell masses into per-threshold sums.  ``_nb_blocks``, the one block
loop, draws the masses on the one table of the analysis and turns their
sums into each replicate's model NBs and its total event and non-event
masses, which give its treat-all NBs (``_treat_all``), block by block, and
every reader takes that stream: ``voi._evpi_grid`` reduces the blocks as
they come, only ``bootstrap_nb_draws_grid`` holds the ``(N, T, 2)`` draws
``[model, treat_all]`` (``bootstrap_nb_draws`` slices its array into an
:class:`NbDrawMatrix` at one threshold), and ``_table_bands``, for
decision curves, keeps of each threshold's model NBs only the two tails
that its percentiles read, and reads the treat-all band from the held
masses (16 bytes a replicate): its memory grows with (1 - level) N T +
16 N, not with N T.
Summed flat-Dirichlet weights are exactly Dirichlet(n_1, ..., n_K) over
the K cells with n_k rows each (the aggregation property of Rubin's
Bayesian bootstrap), drawn as ``standard_gamma(n_k)`` normalized per
replicate; summed resample counts are exactly Multinomial(n, n_k / n).  A
replicate therefore costs O(K), not O(n), and the ordinary draws remain
integer counts, so replicate l equals, bit for bit, the net benefit of a
resampled dataset that takes each cell's count from that cell's rows.

Replicates are drawn in blocks of ``_block_rows(K)`` (``BLOCK_REPS``, or
fewer when K, at most 2 (T + 1), is so large that a block would exceed
``BLOCK_CELLS`` cell masses).  Block b of method m uses the substream
``(seed, m, b)`` and numpy fills it one replicate at a time, so results
depend only on the inputs and the seed: a shorter run is a prefix of a
longer one, the worker and BLAS thread counts play no part (cells are
summed by ``cumsum`` in label order), and the table orders its cells by
outcome and bin, so permuting the rows changes nothing.  Nor does the
helper-thread count: ``_ordered_map`` works up to ``_threads(values)``
blocks at once (the usable CPUs, at most 2; 1 for a request of fewer than
``BLOCK_CELLS`` masses, and in a ``multiprocessing`` child such as a
``simulate`` worker) and hands them on in block order.  One replicate serves every threshold of the
grid, keeping curves coherent.  The grid is strictly increasing, as
``make_thresholds`` requires, and the cells depend on it: adding a
threshold that splits an occupied cell changes the draws at the other
thresholds, though not their distribution.
"""

from __future__ import annotations

import math
import os
import sys
from dataclasses import dataclass

import numpy as np

from .errors import InputError
from .netbenefit import (WEIGHT_SUM_TOL, Threshold, ValidationSample, _CellTable, _net_benefit,
                         _whole)
from .rng import substream

METHOD_IDS = {"bayesian": 0, "ordinary": 1}
DATA_STREAM_ID = 2  # reserved for non-bootstrap consumers (data generation)

DEFAULT_N_REPS = 10_000       # single-dataset analyses
SWEEP_N_REPS = 1_000          # default inside simulation sweeps

BLOCK_REPS = 256              # replicates per random block
BLOCK_CELLS = 1 << 18         # most (replicate, cell) masses in one block: 2 MB of floats
MAX_DRAW_BYTES = 1 << 31      # most bytes of the (N, T, 2) NBs one bootstrap computes, held
                              # or not: 64 times a default evpi method's 32 MB
BAND_WINDOW = 512             # replicates _table_bands takes between cuts to its tails;
                              # at least BLOCK_REPS, so a block fits after a cut


@dataclass(frozen=True)
class WeightVector:
    """One bootstrap weight assignment for a sample of size n.

    ``counts`` holds the integer resample counts when the vector came from
    the multinomial scheme (``weights == counts / n``); it is None for
    Dirichlet draws.
    """

    weights: np.ndarray
    counts: np.ndarray | None = None

    def __post_init__(self):
        w = np.asarray(self.weights, dtype=float)
        w.flags.writeable = False
        object.__setattr__(self, "weights", w)
        if w.ndim != 1 or w.shape[0] < 1:
            raise InputError("weights must be a non-empty vector")
        if w.min() < 0.0:
            raise InputError("weights must be nonnegative")
        if abs(float(w.sum()) - 1.0) > WEIGHT_SUM_TOL:
            raise InputError(f"weights must sum to 1 within {WEIGHT_SUM_TOL:g}")
        if self.counts is not None:
            k = np.asarray(self.counts, dtype=np.int64)
            k.flags.writeable = False
            object.__setattr__(self, "counts", k)
            if int(k.sum()) != w.shape[0]:
                raise InputError("multinomial counts must sum to the sample size")


def dirichlet_weights(n: int, rng: np.random.Generator) -> WeightVector:
    """Draw flat-Dirichlet weights (n unit exponentials, normalized)."""
    if n < 1:
        raise InputError("dirichlet_weights requires n >= 1")
    e = rng.standard_exponential(n)
    return WeightVector(weights=e / e.sum())


def multinomial_weights(n: int, rng: np.random.Generator) -> WeightVector:
    """Draw ordinary-bootstrap weights: resample counts over n cells, / n."""
    if n < 1:
        raise InputError("multinomial_weights requires n >= 1")
    counts = np.bincount(rng.integers(0, n, size=n), minlength=n)
    return WeightVector(weights=counts / n, counts=counts)


@dataclass(frozen=True)
class NbDrawMatrix:
    """Per-replicate net benefit draws at one threshold.

    ``draws`` has shape (N, 2) with columns ``[model, treat_all]``;
    treat-none is the implicit zero column and is handled analytically
    downstream.  Under the Bayesian reading each row is a posterior draw of
    the true strategy NBs.
    """

    draws: np.ndarray
    method: str
    seed: int | tuple

    def __post_init__(self):
        d = np.asarray(self.draws, dtype=float)
        d.flags.writeable = False
        object.__setattr__(self, "draws", d)
        if d.ndim != 2 or d.shape[0] < 1 or d.shape[1] != 2:
            raise InputError(f"draw matrix must be N x 2 with N >= 1, got shape {d.shape}")
        if not np.isfinite(d).all():
            raise InputError("draw matrix entries must be finite")
        _check_method(self.method)


def _block_rows(n_cells: int) -> int:
    """Replicates per block: ``BLOCK_REPS``, fewer when that many
    replicates of ``n_cells`` masses would exceed ``BLOCK_CELLS``."""
    return max(1, min(BLOCK_REPS, BLOCK_CELLS // n_cells))


def _block_masses(counts: np.ndarray, n_reps: int, method: str, seed, start: int) -> np.ndarray:
    """The (rows, K) cell masses of the block of replicates ``start, start +
    1, ...`` (``start`` a multiple of ``_block_rows(K)``) for cells with
    ``counts`` rows.  Bayesian masses are Dirichlet(counts) (total 1);
    ordinary masses are Multinomial(n, counts / n) counts (total n).  A
    block depends only on its substream, so blocks may be drawn in any
    order, on any thread."""
    n, k = int(counts.sum()), counts.size
    rows = _block_rows(k)
    size = (min(rows, n_reps - start), k)
    rng = substream(seed, METHOD_IDS[method], start // rows)
    if method == "bayesian":
        masses = rng.standard_gamma(counts, size=size)
        masses /= masses.sum(axis=1, keepdims=True)
        return masses
    return rng.multinomial(n, counts / n, size=size[0])


def _usable_cpus() -> int:
    """The CPUs this process may run on (its affinity set, where the
    platform has one), at least 1."""
    cpus = len(os.sched_getaffinity(0)) if hasattr(os, "sched_getaffinity") else os.cpu_count()
    return cpus or 1


def _threads(values: int) -> int:
    """How many items :func:`_ordered_map` works at once in a pass over
    ``values`` numbers: 1 below ``BLOCK_CELLS`` values, where starting a
    thread saves nothing, and in a ``multiprocessing`` child (a pool
    worker runs on one CPU), else the usable CPUs, at most 2."""
    mp = sys.modules.get("multiprocessing")
    if values < BLOCK_CELLS or mp is not None and mp.parent_process() is not None:
        return 1
    return min(2, _usable_cpus())


def _ordered_map(fn, items, width: int):
    """Yield ``fn(item)`` for each of the sequence ``items``, in order,
    computing up to ``width`` at once: in each group of ``width`` items,
    helper thread k computes the k-th and the calling thread the last.
    numpy releases the GIL in its multinomial sampler, so they run
    alongside.  A helper starts its next item once its last result is
    taken, so at most ``width`` results exist at a time.  An item's
    exception is raised at its turn, and every helper has joined before
    the generator returns or is closed.

    The calling thread computes its item before it hands on the group's
    first result, so that its previous result is still held: were all of
    a thread's block memory free at once, malloc would give the pages
    back, to be faulted in again for the next block.
    """
    import threading

    width = max(1, min(width, len(items)))
    last = width - 1
    helpers = range(last)
    done = [None] * width  # (True, result) or (False, exception), for each place in a group
    ready = [threading.Semaphore(0) for _ in helpers]  # done[k] holds helper k's item
    taken = [threading.Semaphore(1) for _ in helpers]  # helper k may start its next item
    stop = threading.Event()

    def run(k, item):
        try:
            done[k] = (True, fn(item))
        except BaseException as exc:  # raised by the consumer, at this item's turn
            done[k] = (False, exc)

    def work(k):
        for item in items[k::width]:
            taken[k].acquire()
            if stop.is_set():
                return
            run(k, item)
            ready[k].release()

    # Daemons: a generator that is never closed (its frame kept by a
    # traceback) leaves its helpers waiting, and must not hold up the exit.
    threads = [threading.Thread(target=work, args=(k,), daemon=True) for k in helpers]
    for t in threads:
        t.start()
    try:
        for i in range(len(items)):
            k = i % width
            if k == 0 and i + last < len(items):
                run(last, items[i + last])
            if k < last:
                ready[k].acquire()
            (ok, value), done[k] = done[k], None
            if not ok:
                raise value
            if k < last:
                taken[k].release()
            yield value
    finally:
        stop.set()
        for k in helpers:
            taken[k].release()
        for t in threads:
            t.join()


def _check_method(method) -> None:
    if not isinstance(method, str) or method not in METHOD_IDS:
        raise InputError(f"unknown bootstrap method {method!r}; expected 'bayesian' or 'ordinary'")


def _mass_total(table: _CellTable, method: str):
    """A replicate's total cell mass on ``table``: 1 for Bayesian masses,
    the row count n for ordinary counts."""
    return 1.0 if method == "bayesian" else int(table.cell_counts.sum())


def _treat_all(table: _CellTable, method: str, events, non_events) -> np.ndarray:
    """The ``(rows, T)`` treat-all NBs of replicates with total ``events``
    and ``non_events`` masses: ``(e - c ne) / total``, elementwise, so a
    replicate's NBs are the same floats in any selection of replicates."""
    return _net_benefit(events[:, None], non_events[:, None], table.harm_weight,
                        _mass_total(table, method))


def _check_draws(count, shape: tuple, what: str, noun: str = "bootstrap draws") -> int:
    """``count`` (replicates, or a sweep's simulations) as an int, refused
    unless it is a whole number (``netbenefit._whole``) of at least 1 whose
    array of ``shape`` floats would take at most ``MAX_DRAW_BYTES``;
    ``what`` names the count in the error and ``noun`` the array.  It runs
    before anything is drawn."""
    count = _whole(count, what)
    if count < 1:
        raise InputError(f"{what} must be >= 1")
    if 8 * math.prod(shape) > MAX_DRAW_BYTES:
        raise InputError(f"{what}: {noun} of shape {shape} take {8 * math.prod(shape)} "
                         f"bytes, over the {MAX_DRAW_BYTES}-byte limit")
    return count


def _nb_blocks(table: _CellTable, n_reps: int, method: str, seed):
    """Check a request for ``n_reps`` replicates on ``table`` and return an
    iterator, in replicate order, over the blocks of :func:`_block_masses`,
    each ``(rows, model, events, non_events)``: the slice of replicates,
    their ``(rows, T)`` model NBs and their ``(rows,)`` total event and
    non-event masses, from which :func:`_treat_all` gives the treat-all
    NBs.  The totals are copies, so a block does not keep its cumulative
    sums alive.  The check runs on the call, before anything is drawn, and
    refuses what ``bootstrap_nb_draws_grid`` could not hold, so every
    reader computes the same NB values under the same bound."""
    n_reps = _check_draws(n_reps, (n_reps, len(table.thresholds), 2), "n_reps")
    _check_method(method)
    total = _mass_total(table, method)
    counts, c = table.cell_counts, table.harm_weight

    def block(start):
        masses = _block_masses(counts, n_reps, method, seed, start)
        tp, fp, events, non_events = table.sums(masses)
        return (slice(start, start + masses.shape[0]), _net_benefit(tp, fp, c, total),
                events.copy(), non_events.copy())

    return _ordered_map(block, range(0, n_reps, _block_rows(counts.size)),
                        _threads(n_reps * counts.size))


def _quantile_ranks(n: int, probs):
    """numpy's "linear" quantile rule (Hyndman and Fan's type 7) over ``n``
    values, for ``probs`` in [0, 1]: the ranks ``(lo, hi)``, in sorted
    order, of the two values each probability reads, and the weight ``g``
    of the upper one.  With ``v = (n - 1) p``, ``lo`` is the floor of
    ``v``, ``hi`` the next rank, clipped to ``n - 1``, and ``g = v - lo``."""
    v = (n - 1) * np.asarray(probs, dtype=float)
    lo = np.floor(v)
    return lo.astype(np.intp), np.minimum(lo + 1, n - 1).astype(np.intp), v - lo


def _lerp(a, b, g):
    """numpy's quantile interpolation from order statistic ``a`` to ``b`` at
    weight ``g``: ``a + (b - a) g`` below 0.5, ``b - (b - a) (1 - g)``
    from 0.5 on.  With :func:`_quantile_ranks` it gives ``np.quantile``'s
    value, bit for bit, for finite values other than -0.0 (at ``p = 1``
    numpy reaches the largest value by another weight, which can turn a
    -0.0 into +0.0)."""
    d = b - a
    return np.where(g >= 0.5, b - d * (1 - g), a + d * g)


def _table_bands(table: _CellTable, n_reps: int, method: str, seed, probs):
    """The ``probs`` quantiles, each of shape ``(len(probs), T)``, of the
    model and treat-all NBs of ``_nb_blocks(table, n_reps, method, seed)``,
    bit for bit, without holding the model NBs.

    Each quantile reads two order statistics per threshold
    (:func:`_quantile_ranks`), each counted from the nearer end: the
    ``below`` smallest and ``above`` largest model NBs of a threshold hold
    them all.  A ``(T, below + above + BAND_WINDOW)`` buffer, or ``(T,
    n_reps)`` if that is smaller, takes each block's model NBs in replicate
    order.  When a block does not fit, one partition cuts the filled
    columns back to each row's ``below`` smallest and ``above`` largest
    values, which are still those of every replicate so far.  At the end
    the ranks, counted from the same ends, read the kept values.  Where the
    tails cover every replicate (few replicates, or a narrow band) the
    buffer holds them all and nothing is cut.

    A replicate's treat-all NBs depend on it only through its total event
    and non-event masses e and ne, which are held (16 bytes a replicate).
    With ``total`` the mass of a replicate and ``tol`` = 2 max |e + ne -
    total| + 8 u total (u the unit roundoff), a replicate whose e exceeds
    another's by more than ``tol`` has, as computed, an NB at least the
    other's at every threshold: (1 + c) times the gap exceeds c times the
    two replicates' departures from e + ne = total plus the rounding of
    ``c ne``, and subtraction and division round monotonically.  So one
    partition of e finds, for each rank r, the r-th smallest e; the
    replicates within ``tol`` of it form a window, and the rank-r NB at
    every threshold is the window's NB of rank r less the number of
    replicates below the window.  Each of those has an NB no larger than
    that one, as the window's replicates from the r-th e up outnumber its
    NBs above it, and each replicate above the window, likewise, an NB no
    smaller.  The window's NBs are computed in full, once for each distinct
    (e, ne) pair, which counts as often as it occurs.  Ordinary masses are
    integer counts with e + ne = n exactly, so the window is the replicates
    that tie with the r-th, one pair (on a tiny sample, half the
    replicates); Bayesian masses leave e + ne within a few roundoffs of 1,
    and distinct replicates' e differ by far more, so the window is, in
    practice, one replicate.

    :func:`_lerp` interpolates as numpy does; no NB is -0.0, as ``tp - c
    fp`` and ``e - c ne`` never are."""
    blocks = _nb_blocks(table, n_reps, method, seed)
    t = len(table.thresholds)
    lo, hi, g = _quantile_ranks(n_reps, probs)
    ranks = np.concatenate((lo, hi))
    lower = ranks + 1 <= n_reps - ranks  # as near the smallest value as the largest, or nearer
    below = int((ranks + 1)[lower].max(initial=1))
    above = int((n_reps - ranks)[~lower].max(initial=1))
    kept = np.empty((t, min(n_reps, below + above + BAND_WINDOW)))
    # e + i ne: numpy orders complex numbers by real part first, so one
    # in-place partition sorts the event masses and keeps each one's pair.
    held = np.empty(n_reps, dtype=complex)
    total, spread = _mass_total(table, method), 0.0  # spread: the most |e + ne - total|
    filled = 0
    for rows, model, e, ne in blocks:
        held.real[rows], held.imag[rows] = e, ne
        spread = max(spread, np.abs(e + ne - total).max())
        size = model.shape[0]
        if filled + size > kept.shape[1]:
            # filled > below + above, as a block is at most BAND_WINDOW
            # replicates: the two tails are apart.
            kept[:, :filled].partition([below - 1, filled - above], axis=-1)
            kept[:, below:below + above] = kept[:, filled - above:filled]
            filled = below + above
        kept[:, filled:filled + size] = model.T
        filled += size
    kept = kept[:, :filled]
    at = np.where(lower, ranks, ranks - (n_reps - filled))
    kept.partition(np.unique(at), axis=-1)

    tol = 2 * spread + 4 * np.finfo(float).eps * total
    held.partition(np.unique(ranks))
    events = held.real
    treat_all, columns = np.empty((t, ranks.size)), np.arange(t)
    for i, r in enumerate(ranks):
        start, stop = events[r] - tol, events[r] + tol
        k = r - np.count_nonzero(events < start)  # the rank within the window
        pairs, counts = np.unique(held[(events >= start) & (events <= stop)], return_counts=True)
        nb = _treat_all(table, method, pairs.real, pairs.imag)
        order = nb.argsort(axis=0)
        first = (counts[order].cumsum(axis=0) > k).argmax(axis=0)  # the pair at rank k
        treat_all[:, i] = nb[order[first, columns], columns]
    return tuple(_lerp(q[:, :lo.size], q[:, lo.size:], g).T for q in (kept[:, at], treat_all))


def bootstrap_nb_draws_grid(
    sample: ValidationSample,
    thresholds,
    n_reps: int = DEFAULT_N_REPS,
    method: str = "bayesian",
    seed: int | tuple = 0,
) -> np.ndarray:
    """Draw ``n_reps`` replicate NB vectors at every threshold of a grid
    (as :func:`~nbvoi.netbenefit.make_thresholds` takes it): the
    ``(n_reps, T, 2)`` replicate NBs, columns ``[model, treat_all]``.

    One re-weighting per replicate, applied at all thresholds, drawn over
    the occupied cells in blocks (see the module docstring).  Output is a
    pure function of ``(sample, thresholds, n_reps, method, seed)``.
    """
    n_reps = _whole(n_reps, "n_reps")
    table = _CellTable(sample.outcomes, sample.risks, thresholds)
    blocks = _nb_blocks(table, n_reps, method, seed)
    draws = np.empty((n_reps, len(table.thresholds), 2))
    for rows, model, events, non_events in blocks:
        draws[rows, :, 0], draws[rows, :, 1] = model, _treat_all(table, method, events, non_events)
    return draws


def bootstrap_nb_draws(
    sample: ValidationSample,
    t: Threshold,
    n_reps: int = DEFAULT_N_REPS,
    method: str = "bayesian",
    seed: int | tuple = 0,
) -> NbDrawMatrix:
    """Draw the (n_reps, 2) matrix of replicate NBs at a single threshold."""
    draws = bootstrap_nb_draws_grid(sample, (t,), n_reps=n_reps, method=method, seed=seed)
    return NbDrawMatrix(draws=draws[:, 0, :], method=method, seed=seed)


def dump_draws(draws: np.ndarray, path) -> None:
    """Write the ``(N, 2)`` draws ``[model, treat_all]`` one replicate per
    line, as comma-separated full-precision text."""
    with open(path, "w", encoding="utf-8") as fh:
        fh.write("nb_model,nb_treat_all\n")
        fh.writelines(f"{m!r},{a!r}\n" for m, a in draws.tolist())
