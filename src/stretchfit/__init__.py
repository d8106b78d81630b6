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
    benchmark_grid,
    error1,
    error2,
    grid_config,
    run_monte_carlo,
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
    FitBatch,
    ModelSpec,
    SingularFitError,
    canonicalize_sinusoid,
    fit_batch,
    fit_linear,
    fit_sinusoid,
    predict,
)
from .stretched import stretched_fit_batch

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
    "FitBatch",
    "ModelSpec",
    "SingularFitError",
    "canonicalize_sinusoid",
    "fit_batch",
    "fit_linear",
    "fit_sinusoid",
    "predict",
    "stretched_fit_batch",
    "ExperimentReport",
    "TrialConfig",
    "benchmark_grid",
    "error1",
    "error2",
    "grid_config",
    "run_monte_carlo",
    "__version__",
]
