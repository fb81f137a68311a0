"""Smooth non-crossing bands for the most concentrated region of Y given X.

The estimator works in two stages: kernel-weighted conditional CDFs give
the shortest interval holding a target fraction of the response at every
observation, and the interval endpoints' quantile levels drive a joint
penalized quantile-loss spline fit of two bound curves constrained never
to cross.  Lower-level pieces live in the submodules.
"""

from .kde import Dataset
from .model_select import BandMetrics, CvResult, band_metrics, select_lambda_cv
from .pipeline import (
    Step1Result,
    fit_band,
    load_model,
    run_step1,
    run_step2,
    save_model,
)
from .rhythm import RhythmCycle, detect_rhythms
from .simulate import SimConfig, gen_dist1, gen_dist2, run_experiment
from .solver import FittedBand
from .spline import SplineBasis

__version__ = "0.1.0"

__all__ = [
    "BandMetrics",
    "CvResult",
    "Dataset",
    "FittedBand",
    "RhythmCycle",
    "SimConfig",
    "SplineBasis",
    "Step1Result",
    "band_metrics",
    "detect_rhythms",
    "fit_band",
    "gen_dist1",
    "gen_dist2",
    "load_model",
    "run_experiment",
    "run_step1",
    "run_step2",
    "save_model",
    "select_lambda_cv",
]
