"""Exact oracles for the bootstrap EVPI at one threshold.

At one threshold a sample's rows fall into four cells: flagged events (tp),
flagged non-events (fp), unflagged events (fn) and unflagged non-events
(tn).  The EVPI the bootstrap estimates is E[max(0, NB_model, NB_all)] -
max(0, E NB_model, E NB_all), where the expectations of the NBs are the
sample's own NBs, and for both bootstraps the first term is known exactly.

* Ordinary: a replicate's cell counts are Multinomial(n; tp/n, fp/n, fn/n,
  tn/n), whose C(n + 3, 3) outcomes (39,711 at n = 60) can be enumerated.
* Bayesian: a replicate's cell masses are Dirichlet(tp, fp, fn, tn).  The
  event mass is P1 ~ Beta(e, n - e), with e = tp + fn, and given it the
  flagged masses are P_TP = P1 U and P_FP = (1 - P1) V, with U ~ Beta(tp,
  fn) and V ~ Beta(fp, tn) independent.  NB_all depends on P1 alone, so
  with F = max(0, NB_all) the first term is E[F + P1 E[(U - s)+ | P1, V]]
  for s = (F + c (1 - P1) V) / P1, and E[(U - s)+] is closed in the
  regularised incomplete beta; a Gauss-Legendre rule in the quantiles of
  P1 and V, split where NB_all crosses 0, integrates the rest.
"""

import math

import numpy as np
import pytest
from scipy.special import betainc, betaincinv, gammaln

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


def exact_bayesian_evpi(counts, z: float, nodes: int = 400) -> float:
    """The Bayesian bootstrap EVPI at threshold ``z`` of a sample with
    positive cell counts ``(tp, fp, fn, tn)``, by quadrature (see the
    module docstring); 400 nodes a dimension leave an error of a few 1e-8
    on the cases below (against 1,000 nodes)."""
    tp, fp, fn, tn = counts
    n, e, w = sum(counts), tp + fn, z / (1 - z)
    x, weight = np.polynomial.legendre.leggauss(nodes)
    x, weight = (x + 1) / 2, weight / 2
    cross = betainc(e, n - e, w / (1 + w))  # the quantile of P1 where NB_all = 0
    p = betaincinv(e, n - e, np.concatenate((cross * x, cross + (1 - cross) * x)))
    p_weight = np.concatenate((cross * weight, (1 - cross) * weight))
    floor = np.maximum(0.0, p - w * (1 - p))
    v = betaincinv(fp, tn, x)
    s = np.minimum(1.0, (floor[:, None] + w * (1 - p[:, None]) * v) / p[:, None])
    tail = tp / (tp + fn) * (1 - betainc(tp + 1, fn, s)) - s * (1 - betainc(tp, fn, s))
    current = max(0.0, (tp - w * fp) / n, (e - w * (n - e)) / n)
    return float(p_weight @ (floor + p * (tail @ weight))) - current


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


@pytest.mark.filterwarnings("ignore", category=SmallEffectiveSampleWarning)
@pytest.mark.parametrize("counts, z", [
    ((9, 14, 3, 34), 0.2),          # n = 60, the model best
    ((4, 3, 2, 16), 0.3),           # n = 25
    ((12, 10, 3, 15), 0.15),        # treat-all best
    ((5, 6, 4, 30), 0.6),           # treat-none best
    ((100, 404, 60, 1436), 0.2),    # n = 2,000, the model near treat-none
])
def test_bayesian_evpi_is_within_four_paired_ses_of_the_exact_value(counts, z):
    """At fixed seeds, the EVPI of 10^4 Bayesian replicates lies within 4
    paired SEs of the exact EVPI, both from the held draws and as
    ``evpi_threshold_sweep`` reduces the block stream, as in the ordinary
    test above."""
    exact = exact_bayesian_evpi(counts, z)
    assert exact > 1e-4
    sample, t = _sample(counts, z), Threshold(z)
    for seed in (1, 2, 3):
        draws = bootstrap_nb_draws(sample, t, n_reps=10_000, method="bayesian", seed=seed)
        held = evpi_bootstrap(draws)
        ((_, streamed),) = evpi_threshold_sweep(sample, [t], ["bayesian"], 10_000, seed)
        model, treat_all = draws.draws.T
        chosen = {"model": model, "treat_all": treat_all, "treat_none": 0.0}[held.best_strategy]
        paired = np.maximum(0.0, np.maximum(model, treat_all)) - chosen
        se = paired.std(ddof=1) / math.sqrt(paired.size)
        for result in (held, streamed):
            assert abs(result.evpi - exact) < 4 * se, (seed, result.evpi, exact, se)
