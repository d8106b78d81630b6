"""The two-stage stretched least squares procedure.

Stage 1 resets the abscissas to xx = x + x**beta, stage 2 fits the model
family to (xx_i, y_i) giving the transition curve, and stage 3 refits the
same family to (x_i, transition(xx_i)), re-expressing the smoothed
ordinates in the original coordinate.  Predictions of the method are those
of the stage-3 (final) fit.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .hausdorff import reset_horizontal
from .lsq import Dataset, FitResult, ModelSpec, fit, predict


class StageFailure(RuntimeError):
    """A least squares stage of the two-stage procedure failed."""

    def __init__(self, stage: str, cause: Exception):
        super().__init__(f"{stage} stage failed: {cause}")
        self.stage = stage


@dataclass(frozen=True)
class StretchedFit:
    """Both stages of a stretched fit; ``final`` is the usable regression."""

    beta: float
    transition: FitResult
    final: FitResult

    def __post_init__(self) -> None:
        if not (0.0 < self.beta <= 1.0):
            raise ValueError(f"beta must lie in (0, 1], got {self.beta}")
        if self.transition.model != self.final.model:
            raise ValueError("both stages must use the same model family")

    @property
    def converged(self) -> bool:
        """True when both stages converged."""
        return self.transition.converged and self.final.converged

    def predict(self, x) -> np.ndarray:
        return self.final.predict(x)


def stretched_fit(model: ModelSpec, data: Dataset, beta: float) -> StretchedFit:
    """Run the two-stage procedure for one model family and one beta.

    Both stages use the family's global solver, so a sinusoid stage that did
    not converge comes back flagged by its stop reason rather than raised.
    """
    xx = reset_horizontal(data.x, beta)

    try:
        transition = fit(model, Dataset(xx, data.y))
    except Exception as exc:
        raise StageFailure("transition", exc) from exc

    smoothed = predict(model, transition.params, xx)

    try:
        final = fit(model, Dataset(data.x, smoothed))
    except Exception as exc:
        raise StageFailure("final", exc) from exc

    return StretchedFit(beta=beta, transition=transition, final=final)
