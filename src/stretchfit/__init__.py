"""stretchfit: regression toolkit for data under stretched Gaussian noise.

Provides the stretched Gaussian law with exact and acceptance-rejection
samplers, fractal-metric operators, polynomial and sinusoid least squares
engines, the two-stage stretched fitting procedure, and a seeded Monte
Carlo harness comparing it against plain least squares.
"""

__version__ = "0.1.0"

from .distribution import (
    DegenerateScaleError,
    RejectionStats,
    SamplerFailureError,
    StretchedGaussian,
    absolute_moment,
    normalization_constant,
    pdf,
    sample_exact,
    sample_rejection,
    standardize,
)
from .experiment import (
    ExperimentReport,
    TrialConfig,
    TrialReport,
    benchmark_grid,
    error1,
    error2,
    grid_config,
    make_noisy_dataset,
    run_monte_carlo,
    run_trial,
)
from .hausdorff import (
    FractalAxis,
    fractal_distance,
    hausdorff_derivative,
    hausdorff_integral,
    metric_transform,
    reset_horizontal,
)
from .lsq import (
    Dataset,
    FitResult,
    ModelSpec,
    SingularFitError,
    canonicalize_sinusoid,
    fit,
    fit_linear,
    fit_nonlinear,
    predict,
)
from .stretched import StageFailure, StretchedFit, stretched_fit

__all__ = [
    "DegenerateScaleError",
    "RejectionStats",
    "SamplerFailureError",
    "StretchedGaussian",
    "absolute_moment",
    "normalization_constant",
    "pdf",
    "sample_exact",
    "sample_rejection",
    "standardize",
    "FractalAxis",
    "fractal_distance",
    "hausdorff_derivative",
    "hausdorff_integral",
    "metric_transform",
    "reset_horizontal",
    "Dataset",
    "FitResult",
    "ModelSpec",
    "SingularFitError",
    "canonicalize_sinusoid",
    "fit",
    "fit_linear",
    "fit_nonlinear",
    "predict",
    "StageFailure",
    "StretchedFit",
    "stretched_fit",
    "ExperimentReport",
    "TrialConfig",
    "TrialReport",
    "benchmark_grid",
    "error1",
    "error2",
    "grid_config",
    "make_noisy_dataset",
    "run_monte_carlo",
    "run_trial",
    "__version__",
]
