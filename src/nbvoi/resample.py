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
turns cell masses into per-threshold sums; ``_nb_blocks`` only draws the
masses, on the one table of the analysis, and turns their sums into model
NBs, block by block.  ``_draw_blocks`` adds the treat-all NBs, giving
the rows of the ``(N, T, 2)`` draws ``[model, treat_all]`` block by block:
``voi._evpi_grid`` reduces them as they come, and only
``bootstrap_nb_draws_grid`` holds them (``bootstrap_nb_draws`` slices its
array into an :class:`NbDrawMatrix` at one threshold).  ``_table_bands``,
for decision curves, returns the percentiles of the same values, bit for
bit, from each replicate's event and non-event masses (the treat-all
column is two numbers per replicate, repeated at every threshold) and,
of the model NBs, only the two tails per threshold that its quantiles
read: its memory grows with (1 - level) N, not with N.
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
ordinary blocks at once (the usable CPUs, at most 2; 1 for a request of
fewer than ``BLOCK_CELLS`` masses, and in ``simulate``'s process workers)
and hands them on in block order.  Bayesian blocks stay on the calling
thread, since ``standard_gamma`` holds the GIL.  One replicate
serves every threshold of the grid, keeping curves coherent.  The grid is
strictly increasing, as ``make_thresholds`` requires, and the cells depend
on it: adding a threshold that splits an occupied cell changes the draws at
the other thresholds, though not their distribution.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .errors import InputError
from .netbenefit import WEIGHT_SUM_TOL, Threshold, ValidationSample, _CellTable, _net_benefit
from .rng import substream

METHOD_IDS = {"bayesian": 0, "ordinary": 1}
DATA_STREAM_ID = 2  # reserved for non-bootstrap consumers (data generation)

DEFAULT_N_REPS = 10_000       # single-dataset analyses
SWEEP_N_REPS = 1_000          # default inside simulation sweeps

BLOCK_REPS = 256              # replicates per random block
BLOCK_CELLS = 1 << 18         # most (replicate, cell) masses in one block: 2 MB of floats
MAX_DRAW_BYTES = 1 << 31      # most bytes of the (N, T, 2) NBs one bootstrap computes, held
                              # or not: 64 times a default evpi method's 32 MB
BAND_BLOCK = 1 << 16          # most treat-all NBs per block of _table_bands
BAND_WINDOW = 2048            # model-NB replicates _table_bands takes between cuts to its
                              # tails; at least BLOCK_REPS, so a block fits after a cut
_thread_cap = 2               # most items _ordered_map works at once (see _threads)


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
        if abs(float(w.sum()) - 1.0) > WEIGHT_SUM_TOL:
            raise InputError(f"weights must sum to 1 within {WEIGHT_SUM_TOL:g}")
        if self.counts is not None:
            k = np.asarray(self.counts, dtype=np.int64)
            k.flags.writeable = False
            object.__setattr__(self, "counts", k)
            if int(k.sum()) != w.shape[0]:
                raise InputError("multinomial counts must sum to the sample size")

    @property
    def n(self) -> int:
        return self.weights.shape[0]


def dirichlet_weights(n: int, rng: np.random.Generator) -> WeightVector:
    """Draw flat-Dirichlet weights (n unit exponentials, normalized)."""
    if n < 1:
        raise InputError("dirichlet_weights requires n >= 1")
    e = rng.standard_exponential(n)
    return WeightVector(weights=e / e.sum(), kind="dirichlet")


def multinomial_weights(n: int, rng: np.random.Generator) -> WeightVector:
    """Draw ordinary-bootstrap weights: resample counts over n cells, / n."""
    if n < 1:
        raise InputError("multinomial_weights requires n >= 1")
    counts = np.bincount(rng.integers(0, n, size=n), minlength=n)
    return WeightVector(weights=counts / n, kind="multinomial", counts=counts)


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
        if self.method not in METHOD_IDS:
            raise InputError(f"unknown bootstrap method {self.method!r}")


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


def _threads(values: int) -> int:
    """How many items :func:`_ordered_map` works at once in a pass over
    ``values`` numbers: 1 below ``BLOCK_CELLS`` values, where starting a
    thread saves nothing, else the usable CPUs, at most ``_thread_cap``."""
    import os

    if values < BLOCK_CELLS:
        return 1
    cpus = len(os.sched_getaffinity(0)) if hasattr(os, "sched_getaffinity") else os.cpu_count()
    return max(1, min(_thread_cap, cpus or 1))


def _single_thread() -> None:
    """Work one item at a time in this process (the initializer of
    ``simulate``'s process workers, which each run on one CPU)."""
    global _thread_cap
    _thread_cap = 1


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


def _nb_blocks(table: _CellTable, n_reps: int, method: str, seed):
    """Check a request for ``n_reps`` replicates on ``table`` and return
    ``(total, blocks)``: the NB denominator (1 for Bayesian masses, n for
    ordinary counts) and an iterator, in replicate order, over the blocks
    of :func:`_block_masses`, each ``(rows, model, events, non_events)``:
    the slice of replicates, their ``(rows, T)`` model NBs and their event
    and non-event masses.  The check refuses what ``bootstrap_nb_draws_grid``
    could not hold, so every reader computes the same NB values under the
    same bound."""
    if n_reps < 1:
        raise InputError("n_reps must be >= 1")
    _check_method(method)
    shape = (n_reps, len(table.thresholds), 2)
    if 8 * math.prod(shape) > MAX_DRAW_BYTES:
        raise InputError(f"bootstrap draws of shape {shape} take {8 * math.prod(shape)} "
                         f"bytes, over the {MAX_DRAW_BYTES}-byte limit")
    total = 1.0 if method == "bayesian" else int(table.cell_counts.sum())
    counts = table.cell_counts

    def block(start):
        masses = _block_masses(counts, n_reps, method, seed, start)
        tp, fp, events, non_events = table.sums(masses)
        # Copies of the two (rows,) masses let the block's sums go at once.
        return (slice(start, start + masses.shape[0]),
                _net_benefit(tp, fp, table.harm_weight, total), events.copy(), non_events.copy())

    # standard_gamma holds the GIL over an array of shapes: Bayesian blocks
    # gain nothing from helper threads.
    width = 1 if method == "bayesian" else _threads(n_reps * counts.size)
    return total, _ordered_map(block, range(0, n_reps, _block_rows(counts.size)), width)


def _draw_blocks(table: _CellTable, n_reps: int, method: str, seed):
    """The blocks of :func:`_nb_blocks` as ``(rows, model, treat_all)``, the
    ``(rows, T)`` model and treat-all NBs of a slice of replicates; the
    request is checked on the call, before anything is drawn."""
    total, blocks = _nb_blocks(table, n_reps, method, seed)
    c = table.harm_weight
    return ((rows, model, _net_benefit(events[:, None], non_events[:, None], c, total))
            for rows, model, events, non_events in blocks)


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
    model and treat-all NBs of ``_draw_blocks(table, n_reps, method, seed)``,
    bit for bit, without holding those draws.

    Each quantile reads two order statistics per threshold
    (:func:`_quantile_ranks`), each counted from the nearer end: the
    ``below`` smallest and ``above`` largest model NBs of a threshold hold
    them all.  A ``(T, below + above + BAND_WINDOW)`` buffer, or ``(T,
    n_reps)`` if that is smaller, takes each block's model NBs in
    replicate order.  When a block does not fit, one partition cuts the
    filled columns back to each threshold's ``below`` smallest and
    ``above`` largest values, which are still those of every replicate so
    far.  At the end the ranks, counted from the same ends, read the kept
    values, and :func:`_lerp` interpolates as numpy does.  Where the tails
    cover every replicate (few replicates, or a narrow band) the buffer
    holds them all and nothing is cut.  The ``(n_reps,)`` event and
    non-event masses are held, and the treat-all NBs are rebuilt from them
    by the same formula, a few thresholds (at most ``BAND_BLOCK`` values,
    or one threshold) at a time."""
    total, blocks = _nb_blocks(table, n_reps, method, seed)
    c = table.harm_weight
    lo, hi, g = _quantile_ranks(n_reps, probs)
    ranks = np.concatenate((lo, hi))
    lower = ranks + 1 <= n_reps - ranks  # as near the smallest value as the largest, or nearer
    below = int((ranks + 1)[lower].max(initial=1))
    above = int((n_reps - ranks)[~lower].max(initial=1))
    kept = np.empty((c.size, min(n_reps, below + above + BAND_WINDOW)))
    filled = 0
    events, non_events = np.empty(n_reps), np.empty(n_reps)
    for rows, nb, ev, nev in blocks:
        events[rows], non_events[rows] = ev, nev
        if filled + nb.shape[0] > kept.shape[1]:
            # filled > below + above, as a block is at most BAND_WINDOW
            # replicates: the two tails are apart.
            kept[:, :filled].partition([below - 1, filled - above], axis=-1)
            kept[:, below:below + above] = kept[:, filled - above:filled]
            filled = below + above
        kept[:, filled:filled + nb.shape[0]] = nb.T
        filled += nb.shape[0]
    kept = kept[:, :filled]
    at = np.where(lower, ranks, ranks - (n_reps - filled))
    kept.partition(np.unique(at), axis=-1)
    model_q = _lerp(kept[:, at[:lo.size]], kept[:, at[lo.size:]], g).T
    del kept
    all_q = np.empty_like(model_q)
    step = max(1, BAND_BLOCK // n_reps)
    for j in range(0, c.size, step):
        nb = _net_benefit(events, non_events, c[j:j + step, None], total)
        all_q[:, j:j + step] = np.quantile(nb, probs, axis=-1, overwrite_input=True)
    return model_q, all_q


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
    table = _CellTable(sample.outcomes, sample.risks, thresholds)
    blocks = _draw_blocks(table, n_reps, method, seed)
    draws = np.empty((n_reps, len(table.thresholds), 2))
    for rows, model, treat_all in blocks:
        draws[rows, :, 0], draws[rows, :, 1] = model, treat_all
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
