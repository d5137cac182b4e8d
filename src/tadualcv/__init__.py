"""Imputation of irregular multivariate time series with missing values.

Combines cross-visit chained-equation imputation (a feature-perspective and
a temporal-perspective view, blended by a compromise rule) with per-visit
Gaussian-process regression over event times, plus the classic baselines and
a masking/nRMSE evaluation harness.

The package root exports the pipeline API: data, masks, ``impute``, scoring
and the errors ``impute`` raises. The chain, GP and dual-view internals are
imported from their modules.
"""

from .config import Config, ConfigError
from .data_model import (
    DataError,
    Dataset,
    FeatureSpec,
    MaskSet,
    Visit,
    apply_mask,
    restore_mask,
    validate,
)
from .chained_equations import DegenerateModelError
from .methods import VARIANTS, ImputationOutput, impute
from .evaluation import (
    EvalReport,
    mask_one_per_feature_visit,
    mask_random,
    nrmse,
    run_experiment,
)
from .synthetic import SynthConfig, generate

__version__ = "0.1.0"
