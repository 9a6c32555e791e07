"""Scoring a dataset from a coefficient file and auditing the result.
======================================================================

Validation datasets often arrive as flat extracts with raw feature
columns; the model under validation is just a set of logistic
coefficients.  ``ModelSpec`` holds those coefficients, ``score`` applies
the inverse logit, and the scored risks feed straight into decision
curves and EVPI.  Nonlinear transforms (caps, dummies, interactions)
belong upstream, precomputed into their own columns, so the scoring step
stays auditable.
"""

import numpy as np

from nbvoi import (
    FeatureTable,
    ModelSpec,
    Threshold,
    c_statistic,
    evpi_threshold_sweep,
    nb_all,
    nb_model,
    scored_sample,
    substream,
)

# A toy mortality-style model over three precomputed columns.  In a file
# this would be:  {"intercept": -3.1, "terms": {"age_decades": 0.45, ...}}
spec = ModelSpec(
    intercept=-3.1,
    terms=(("age_decades", 0.45), ("prior_event", 0.9), ("sbp_capped", -0.015)),
)

rng = substream(8, 2)
n = 800
features = FeatureTable(
    columns={
        "age_decades": rng.uniform(3, 9, n),
        "prior_event": (rng.random(n) < 0.3).astype(float),
        "sbp_capped": np.minimum(rng.normal(120, 20, n), 140.0),
    },
    outcomes=np.zeros(n, dtype=np.int64),  # placeholder, replaced below
)

# Simulate outcomes from the same model so the predictions are calibrated.
outcomes = (rng.random(n) < scored_sample(features, spec).risks).astype(np.int64)
features = FeatureTable(columns=features.columns, outcomes=outcomes)

sample = scored_sample(features, spec)
print(f"scored {sample.n} rows: prevalence {sample.prevalence:.3f}, "
      f"risk range [{sample.risks.min():.3f}, {sample.risks.max():.3f}], "
      f"c-statistic {c_statistic(sample):.3f}")

z = Threshold(0.1)
print(f"\nat z={z.z}: NB model {nb_model(sample, z):+.4f}, "
      f"NB all {nb_all(sample, z):+.4f}, NB none +0.0000")

(_, voi), = evpi_threshold_sweep(sample, (z,), methods=("asymptotic",), seed=0)
print(f"asymptotic EVPI {voi.evpi:.5f}; best strategy under current "
      f"information: {voi.best_strategy}; P(useful) {voi.p_useful:.3f}")

# CLI equivalents:
#   nbvoi score --data extract.csv --outcome died --model model.json
#   nbvoi evpi  --data extract.csv --outcome died --model model.json \
#       --thresholds 0.05,0.1,0.2 --population 800000
