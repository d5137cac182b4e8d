"""Imputation of irregular multivariate time series with missing values.

Combines cross-visit chained-equation imputation (a feature-perspective and
a temporal-perspective view, blended by a compromise rule) with per-visit
Gaussian-process regression over event times, plus the classic baselines and
a masking/nRMSE evaluation harness.
"""

from .config import Config, ConfigError
from .data_model import (
    CellIndex,
    DataError,
    Dataset,
    FeatureSpec,
    MaskSet,
    Visit,
    apply_mask,
    median_event_count,
    restore_mask,
    validate,
)
from .chained_equations import (
    DegenerateModelError,
    initialize_fills,
    pmm_draw,
    run_chains,
    sweep,
)
from .dualcv import (
    cfp_impute,
    compromise,
    ctp_impute,
    dualcv_impute,
)
from .gp_within_visit import (
    GPModel,
    IllConditionedCorrelationError,
    corr,
    fit_gp,
    gp_impute_visit,
    gp_predict,
    profile_neg_log_likelihood,
)
from .methods import (
    VARIANTS,
    ImputationOutput,
    ecf_fill,
    fuse,
    fusion_weights,
    impute,
    mean_fill,
)
from .evaluation import (
    EvalReport,
    denormalize,
    mask_one_per_feature_visit,
    mask_random,
    normalize,
    nrmse,
    run_experiment,
)
from .synthetic import SynthConfig, generate

__version__ = "0.1.0"
