"""nbvoi: net benefit, decision curves, and validation EVPI.

Quantifies the clinical-utility consequences of finite-sample uncertainty
when a risk prediction model is validated externally: net benefit of the
model / treat-all / treat-none strategies, decision curves with bootstrap
bands, and the expected value of perfect information computed by Bayesian
bootstrap, ordinary bootstrap, or a closed-form asymptotic method, plus a
simulation lab for sample-size sweeps.
"""

__version__ = "0.1.0"

from .bvn import BvnParams, bvn_cdf, e_max_zero_bvn, std_normal_cdf, std_normal_pdf
from .errors import InputError, NumericError, SmallEffectiveSampleWarning
from .io import FeatureTable, ModelSpec, load_dataset, load_model_spec, score, scored_sample
from .netbenefit import (
    DecisionCurve,
    Threshold,
    ValidationSample,
    decision_curve,
    default_grid,
    make_thresholds,
    nb_all,
    nb_model,
    weighted_nb,
)
from .resample import (
    GridDraws,
    NbDrawMatrix,
    WeightVector,
    bootstrap_nb_draws,
    bootstrap_nb_draws_grid,
    dirichlet_weights,
    dump_draws,
    multinomial_weights,
)
from .rng import substream
from .simlab import (
    LogisticDgm,
    SweepConfig,
    SweepResult,
    SweepRow,
    c_statistic,
    doubling_sizes,
    generate_synthetic,
    subsample_sweep,
    synthetic_sweep,
    true_nb_of_dgm,
)
from .voi import (
    MomentSet,
    VoiResult,
    evpi_asymptotic,
    evpi_bootstrap,
    evpi_threshold_sweep,
    moments,
    p_useful,
    population_scaled,
    relative_evpi,
)

__all__ = [
    "BvnParams",
    "DecisionCurve",
    "FeatureTable",
    "GridDraws",
    "InputError",
    "LogisticDgm",
    "ModelSpec",
    "MomentSet",
    "NbDrawMatrix",
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
    "bootstrap_nb_draws_grid",
    "bvn_cdf",
    "c_statistic",
    "decision_curve",
    "default_grid",
    "dirichlet_weights",
    "doubling_sizes",
    "dump_draws",
    "e_max_zero_bvn",
    "evpi_asymptotic",
    "evpi_bootstrap",
    "evpi_threshold_sweep",
    "generate_synthetic",
    "load_dataset",
    "load_model_spec",
    "make_thresholds",
    "moments",
    "multinomial_weights",
    "nb_all",
    "nb_model",
    "p_useful",
    "population_scaled",
    "relative_evpi",
    "score",
    "scored_sample",
    "std_normal_cdf",
    "std_normal_pdf",
    "subsample_sweep",
    "substream",
    "synthetic_sweep",
    "true_nb_of_dgm",
    "weighted_nb",
]
