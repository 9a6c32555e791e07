"""Seeded, splittable random-number streams.

Every stochastic routine in the package derives its generators through
:func:`substream`, keyed by an integer seed plus a tuple of non-negative
integers identifying the consumer (replicate block, sweep cell, method id,
...).  Streams with different keys are statistically independent, and the
stream for a given key depends only on ``(seed, key)`` -- never on how many
other streams exist or in which order they are created.  That is what makes
results reproducible across serial, chunked, and multi-process execution.
"""

from __future__ import annotations

import numpy as np


def substream(seed: int | tuple, *key: int) -> np.random.Generator:
    """Return an independent generator for ``(seed, key)``.

    ``seed`` may be an int or a tuple of ints (a composite seed, as used by
    sweep cells).  Equivalent to taking the ``key``-th child of
    ``np.random.SeedSequence(seed)`` through nested ``spawn`` calls, but
    constructed directly so no spawn bookkeeping is shared between callers.
    """
    ss = np.random.SeedSequence(entropy=seed, spawn_key=tuple(key))
    return np.random.Generator(np.random.PCG64(ss))

