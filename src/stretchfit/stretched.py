"""The two-stage stretched least squares procedure.

Stage 1 resets the abscissas to xx = x + x**beta, stage 2 fits the model
family to (xx_i, y_i) giving the transition curve, and stage 3 refits the
same family to (x_i, transition(xx_i)), re-expressing the smoothed
ordinates in the original coordinate.  Predictions of the method are those
of the stage-3 (final) fit.  Like the fits, the procedure runs on a batch
of ordinate rows on shared abscissas.
"""

from __future__ import annotations

import numpy as np

from .hausdorff import reset_horizontal
from .lsq import FitBatch, ModelSpec, SingularFitError, fit_batch, predict


class StageFailure(RuntimeError):
    """A least squares stage of the two-stage procedure failed numerically."""

    def __init__(self, stage: str, cause: Exception):
        super().__init__(f"{stage} stage failed: {cause}")
        self.stage = stage


def stretched_fit_batch(model: ModelSpec, x, ys, beta: float) -> tuple[FitBatch, FitBatch]:
    """Run the two-stage procedure on each row of ``ys``, all on the abscissas ``x``.

    Returns the (transition, final) fits of the rows.  Both stages use the
    family's global solver, so a sinusoid stage that did not converge comes
    back flagged by its stop reason rather than raised.  Only numerical
    failures of a stage become StageFailure; invalid input raises as it
    does from ``fit_batch``.
    """
    xx = reset_horizontal(x, beta)

    try:
        transition = fit_batch(model, xx, ys)
    except (SingularFitError, np.linalg.LinAlgError) as exc:
        raise StageFailure("transition", exc) from exc

    smoothed = predict(model, transition.params, xx)

    try:
        final = fit_batch(model, x, smoothed)
    except (SingularFitError, np.linalg.LinAlgError) as exc:
        raise StageFailure("final", exc) from exc

    return transition, final

