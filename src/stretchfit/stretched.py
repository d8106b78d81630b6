"""The two-stage stretched least squares procedure.

Stage 1 resets the abscissas to xx = x + x**beta, stage 2 fits the model
family to (xx_i, y_i) giving the transition curve, and stage 3 refits the
same family to (x_i, transition(xx_i)), re-expressing the smoothed
ordinates in the original coordinate.  Those ordinates are the transition
fit's own fitted values.  Predictions of the method are those of the
stage-3 (final) fit.  Like the fits, the procedure runs on a batch of
ordinate rows on shared abscissas.
"""

from __future__ import annotations

from .hausdorff import reset_horizontal
from .lsq import FitBatch, ModelSpec, fit_batch


def stretched_fit_batch(model: ModelSpec, x, ys, beta: float) -> tuple[FitBatch, FitBatch]:
    """Run the two-stage procedure on each row of ``ys``, all on the abscissas ``x``.

    Returns the (transition, final) fits of the rows.  Both stages use the
    family's global solver, so a sinusoid stage that did not converge comes
    back flagged by its stop reason rather than raised.  A stage that fails
    raises as ``fit_batch`` does.
    """
    transition = fit_batch(model, reset_horizontal(x, beta), ys)
    return transition, fit_batch(model, x, transition.fitted)
