"""nbvoi: net benefit, decision curves, and validation EVPI.

Quantifies the clinical-utility consequences of finite-sample uncertainty
when a risk prediction model is validated externally: net benefit of the
model / treat-all / treat-none strategies, decision curves with bootstrap
bands, and the expected value of perfect information computed by Bayesian
bootstrap, ordinary bootstrap, or a closed-form asymptotic method, plus a
simulation lab for sample-size sweeps.

The package namespace holds what the demos, the README and
``tests/test_acceptance.py`` call (the tests alone need ``BvnParams``,
``bvn_cdf``, ``std_normal_cdf``, ``e_max_zero_bvn``, ``bootstrap_nb_draws``
and ``true_nb_of_dgm``), their return types and the exception types; the rest
is imported from its module (``nbvoi.voi``, ``nbvoi.resample``, ...).
"""

__version__ = "0.1.0"

from .bvn import BvnParams, bvn_cdf, e_max_zero_bvn, std_normal_cdf
from .errors import InputError, NumericError, SmallEffectiveSampleWarning
from .io import FeatureTable, ModelSpec, scored_sample
from .netbenefit import (
    DecisionCurve,
    Threshold,
    ValidationSample,
    decision_curve,
    make_thresholds,
    nb_all,
    nb_model,
    weighted_nb,
)
from .resample import WeightVector, bootstrap_nb_draws
from .rng import substream
from .simlab import (
    LogisticDgm,
    SweepConfig,
    SweepResult,
    SweepRow,
    c_statistic,
    generate_synthetic,
    synthetic_sweep,
    true_nb_of_dgm,
)
from .voi import VoiResult, evpi_threshold_sweep, moments, population_scaled

__all__ = [
    "BvnParams",
    "DecisionCurve",
    "FeatureTable",
    "InputError",
    "LogisticDgm",
    "ModelSpec",
    "NumericError",
    "SmallEffectiveSampleWarning",
    "SweepConfig",
    "SweepResult",
    "SweepRow",
    "Threshold",
    "ValidationSample",
    "VoiResult",
    "WeightVector",
    "bootstrap_nb_draws",
    "bvn_cdf",
    "c_statistic",
    "decision_curve",
    "e_max_zero_bvn",
    "evpi_threshold_sweep",
    "generate_synthetic",
    "make_thresholds",
    "moments",
    "nb_all",
    "nb_model",
    "population_scaled",
    "scored_sample",
    "std_normal_cdf",
    "substream",
    "synthetic_sweep",
    "true_nb_of_dgm",
    "weighted_nb",
]
