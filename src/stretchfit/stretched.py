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

TRANSITION_AT_TRANSFORMED = "transformed"
TRANSITION_AT_ORIGINAL = "original"


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

    def predict(self, x) -> np.ndarray:
        return self.final.predict(x)


def stretched_fit(model: ModelSpec, data: Dataset, beta: float,
                  transition_eval: str = TRANSITION_AT_TRANSFORMED) -> StretchedFit:
    """Run the two-stage procedure for one model family and one beta.

    ``transition_eval`` selects where the transition curve is evaluated to
    form the stage-3 ordinates: at the transformed abscissas (default) or,
    for sensitivity experiments, at the original ones.  Both stages use the
    family's global solver, so a sinusoid stage that did not converge comes
    back flagged by its stop reason rather than raised.
    """
    if transition_eval not in (TRANSITION_AT_TRANSFORMED, TRANSITION_AT_ORIGINAL):
        raise ValueError(f"unknown transition_eval {transition_eval!r}")
    xx = reset_horizontal(data.x, beta)

    try:
        transition = fit(model, Dataset(xx, data.y))
    except Exception as exc:
        raise StageFailure("transition", exc) from exc

    eval_at = xx if transition_eval == TRANSITION_AT_TRANSFORMED else data.x
    smoothed = predict(model, transition.params, eval_at)

    try:
        final = fit(model, Dataset(data.x, smoothed))
    except Exception as exc:
        raise StageFailure("final", exc) from exc

    return StretchedFit(beta=beta, transition=transition, final=final)
