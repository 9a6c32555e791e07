"""An exact oracle for the ordinary bootstrap EVPI at one threshold.

At one threshold a sample's rows fall into four cells: flagged events (tp),
flagged non-events (fp), unflagged events (fn) and unflagged non-events
(tn).  An ordinary bootstrap replicate's cell counts are then exactly
Multinomial(n; tp/n, fp/n, fn/n, tn/n), whose C(n + 3, 3) outcomes (39,711
at n = 60) can be enumerated, so the EVPI the bootstrap estimates is known
exactly: E[max(0, NB_model, NB_all)] - max(0, E NB_model, E NB_all), where
the expectations of the NBs are the sample's own NBs.
"""

import math

import numpy as np
import pytest
from scipy.special import gammaln

from nbvoi import SmallEffectiveSampleWarning, Threshold, ValidationSample, evpi_threshold_sweep
from nbvoi.resample import bootstrap_nb_draws
from nbvoi.voi import evpi_bootstrap


def exact_ordinary_evpi(counts, z: float) -> float:
    """The ordinary bootstrap EVPI at threshold ``z`` of a sample with
    positive cell counts ``(tp, fp, fn, tn)``, by enumerating every
    resampled count."""
    n, w = sum(counts), z / (1 - z)
    a, b, c = (x.ravel() for x in np.indices((n + 1,) * 3))
    keep = a + b + c <= n
    k = np.stack([a[keep], b[keep], c[keep], n - a[keep] - b[keep] - c[keep]])
    log_p = np.log(np.asarray(counts, dtype=float) / n)[:, None]
    pmf = np.exp(gammaln(n + 1) - gammaln(k + 1).sum(axis=0) + (k * log_p).sum(axis=0))
    assert math.isclose(pmf.sum(), 1.0, rel_tol=1e-12)
    nb_model = (k[0] - w * k[1]) / n
    nb_all = (k[0] + k[2] - w * (k[1] + k[3])) / n
    tp, fp, fn, tn = counts
    current = max(0.0, (tp - w * fp) / n, (tp + fn - w * (fp + tn)) / n)
    return float(pmf @ np.maximum(0.0, np.maximum(nb_model, nb_all))) - current


def _sample(counts, z: float) -> ValidationSample:
    tp, fp, fn, tn = counts
    outcomes = [1] * tp + [0] * fp + [1] * fn + [0] * tn
    risks = [min(1.0, z + 0.1)] * (tp + fp) + [z / 2] * (fn + tn)
    return ValidationSample(outcomes, risks)


@pytest.mark.filterwarnings("ignore", category=SmallEffectiveSampleWarning)
@pytest.mark.parametrize("counts, z", [
    ((9, 14, 3, 34), 0.2),    # n = 60, the model best
    ((4, 3, 2, 16), 0.3),     # n = 25
    ((12, 10, 3, 15), 0.15),  # treat-all best
    ((5, 6, 4, 30), 0.6),     # treat-none best
])
def test_ordinary_evpi_is_within_four_paired_ses_of_the_exact_value(counts, z):
    """At fixed seeds, the EVPI of 10^4 ordinary replicates lies within 4
    paired SEs of the enumerated EVPI, both from the held draws
    (``evpi_bootstrap``) and as ``evpi_threshold_sweep`` reduces the block
    stream.  The paired SE is that of the mean of each replicate's
    perfect-information NB minus the NB of the strategy chosen under
    current information, whose mean is the estimate: it is far smaller than
    ``mc_se``, the SE of the first term alone."""
    exact = exact_ordinary_evpi(counts, z)
    assert exact > 1e-4
    sample, t = _sample(counts, z), Threshold(z)
    for seed in (1, 2, 3):
        draws = bootstrap_nb_draws(sample, t, n_reps=10_000, method="ordinary", seed=seed)
        held = evpi_bootstrap(draws)
        ((_, streamed),) = evpi_threshold_sweep(sample, [t], ["ordinary"], 10_000, seed)
        model, treat_all = draws.draws.T
        chosen = {"model": model, "treat_all": treat_all, "treat_none": 0.0}[held.best_strategy]
        paired = np.maximum(0.0, np.maximum(model, treat_all)) - chosen
        se = paired.std(ddof=1) / math.sqrt(paired.size)
        for result in (held, streamed):
            assert abs(result.evpi - exact) < 4 * se, (seed, result.evpi, exact, se)
