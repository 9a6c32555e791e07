"""Seeded, splittable random-number streams.

Every stochastic routine in the package derives its generators through
:func:`substream`, keyed by an integer seed plus a tuple of non-negative
integers identifying the consumer (replicate block, sweep cell, method id,
...).  Streams with different keys are statistically independent, and the
stream for a given key depends only on ``(seed, key)`` -- never on how many
other streams exist or in which order they are created.  That is what makes
results reproducible across serial, chunked, and multi-process execution.

A seed is a non-negative integer or a tuple of them.  :func:`_check_seed`
holds that rule for the whole package, command line included: ``substream``
applies it, and so do the analyses that take a seed (``voi._evpi_grid``,
``netbenefit.decision_curve``, ``simlab.SweepConfig``) on entry, so a run
that draws nothing rejects a bad seed too.
"""

from __future__ import annotations

import numpy as np

from .errors import InputError


def _check_seed(seed):
    """``seed``, if it is a non-negative integer (not a bool) or a tuple of
    them."""
    if not all(isinstance(p, (int, np.integer)) and not isinstance(p, bool) and p >= 0
               for p in (seed if isinstance(seed, tuple) else (seed,))):
        raise InputError(f"seed must be a non-negative integer or a tuple of them, got {seed!r}")
    return seed


def substream(seed: int | tuple, *key: int) -> np.random.Generator:
    """Return an independent generator for ``(seed, key)``.

    ``seed`` may be an int or a tuple of ints (a composite seed, as used by
    sweep cells).  Equivalent to taking the ``key``-th child of
    ``np.random.SeedSequence(seed)`` through nested ``spawn`` calls, but
    constructed directly so no spawn bookkeeping is shared between callers.
    """
    ss = np.random.SeedSequence(entropy=_check_seed(seed), spawn_key=tuple(key))
    return np.random.Generator(np.random.PCG64(ss))
