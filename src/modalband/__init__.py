"""Smooth non-crossing bands for the most concentrated region of Y given X.

The estimator works in two stages: kernel-weighted conditional CDFs give
the shortest interval holding a target fraction of the response at every
observation, and the interval endpoints' quantile levels drive a joint
penalized quantile-loss spline fit of two bound curves constrained never
to cross.
"""

from .intervals import (
    ModalInterval,
    QuantileLevelSet,
    estimate_intervals_at,
    estimate_levels_all,
    mi_quantile_levels,
    shortest_interval,
    true_mi_lognormal,
    true_mi_normal,
)
from .kde import (
    Dataset,
    WeightedECDF,
    conditional_cdf,
    density_weights,
    gaussian_kernel,
    normal_reference_bandwidth,
    select_bandwidth,
)
from .model_select import (
    BandMetrics,
    CvResult,
    band_metrics,
    mcwc_score,
    rmse_bounds,
    select_lambda_cv,
)
from .pipeline import (
    Step1Result,
    fit_band,
    load_model,
    run_step1,
    run_step2,
    save_model,
)
from .rhythm import RhythmCycle, classify_ratio, detect_rhythms
from .simulate import (
    DEFAULT_LAMBDA_GRID,
    ExperimentRow,
    RepResult,
    SimConfig,
    aggregate,
    gen_dist1,
    gen_dist2,
    run_experiment,
    run_replications,
    true_band,
)
from .solver import (
    FittedBand,
    MirProblem,
    admm_fit,
    assemble,
    objective,
    project_nonneg,
    prox_quantile_loss,
    quantile_loss,
)
from .spline import (
    SplineBasis,
    continuity_matrix,
    design_matrix,
    eval_spline,
    noncross_matrix,
    penalty_matrix,
)

__version__ = "0.1.0"

__all__ = [
    "BandMetrics",
    "CvResult",
    "DEFAULT_LAMBDA_GRID",
    "Dataset",
    "ExperimentRow",
    "FittedBand",
    "MirProblem",
    "ModalInterval",
    "QuantileLevelSet",
    "RepResult",
    "RhythmCycle",
    "SimConfig",
    "SplineBasis",
    "Step1Result",
    "WeightedECDF",
    "admm_fit",
    "aggregate",
    "assemble",
    "band_metrics",
    "classify_ratio",
    "conditional_cdf",
    "continuity_matrix",
    "density_weights",
    "design_matrix",
    "detect_rhythms",
    "estimate_intervals_at",
    "estimate_levels_all",
    "eval_spline",
    "fit_band",
    "gaussian_kernel",
    "gen_dist1",
    "gen_dist2",
    "load_model",
    "mcwc_score",
    "mi_quantile_levels",
    "noncross_matrix",
    "normal_reference_bandwidth",
    "objective",
    "penalty_matrix",
    "project_nonneg",
    "prox_quantile_loss",
    "quantile_loss",
    "rmse_bounds",
    "run_experiment",
    "run_replications",
    "run_step1",
    "run_step2",
    "save_model",
    "select_bandwidth",
    "select_lambda_cv",
    "shortest_interval",
    "true_band",
    "true_mi_lognormal",
    "true_mi_normal",
]
