"""Fractal-metric operators: stretched distance, integral, and derivative.

All operators reduce to their classical counterparts at exponent 1.  The
coordinate reset used by the two-stage fitting method lives here too.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Callable

import numpy as np

_GL_PANEL_ORDER = 16


@dataclass(frozen=True)
class FractalAxis:
    """An axis with stretch exponent in (0, 1] and a reference origin."""

    exponent: float
    origin: float = 0.0

    def __post_init__(self) -> None:
        if not 0.0 < self.exponent <= 1.0:
            raise ValueError(f"exponent must lie in (0, 1], got {self.exponent}")
        if not math.isfinite(self.origin):
            raise ValueError("origin must be finite")


def fractal_distance(axis: FractalAxis, point):
    """Stretched distance (point - origin)**exponent, elementwise, for point >= origin.

    A scalar point gives a float and an array keeps its shape; an overflow raises ValueError.
    """
    p = np.asarray(point, dtype=float)
    before = p < axis.origin
    if before.any():
        raise ValueError(f"point {p[before][0]} lies before the axis origin {axis.origin}")
    try:
        with np.errstate(over="raise"):
            d = np.subtract(p, axis.origin, out=np.empty_like(p))
    except FloatingPointError as exc:
        raise ValueError(f"distance from the axis origin {axis.origin} overflows ({exc})") from exc
    np.power(d, axis.exponent, out=d)
    return d if d.shape else float(d)


def hausdorff_integral(v: Callable[[float], float], axis: FractalAxis,
                       upper: float, quadrature_points: int = 256) -> float:
    """Integral of v against the stretched measure d(tau - origin)**exponent.

    Equals the ordinary integral of v(tau) * exponent * (tau-origin)**(exponent-1),
    whose weight is singular at the origin for exponent < 1.  Substituting
    u = (tau - origin)**exponent removes the singularity exactly, leaving the
    bounded integrand v(origin + u**(1/exponent)) on [0, (upper-origin)**exponent],
    which is evaluated by composite Gauss-Legendre quadrature with at least
    ``quadrature_points`` nodes.
    """
    if upper <= axis.origin:
        raise ValueError(f"upper bound {upper} must exceed the origin {axis.origin}")
    if quadrature_points < 1:
        raise ValueError("quadrature_points must be at least 1")

    u_max = fractal_distance(axis, upper)
    order = min(quadrature_points, _GL_PANEL_ORDER)
    panels = -(-quadrature_points // order)
    nodes, weights = np.polynomial.legendre.leggauss(order)

    edges = np.linspace(0.0, u_max, panels + 1)
    half = np.diff(edges) / 2.0
    mid = (edges[:-1] + edges[1:]) / 2.0
    u = (mid[:, None] + half[:, None] * nodes[None, :]).ravel()
    w = (half[:, None] * weights[None, :]).ravel()

    tau = axis.origin + u ** (1.0 / axis.exponent)
    vals = np.asarray([v(t) for t in tau], dtype=float)
    if not np.all(np.isfinite(vals)):
        raise ValueError("integrand produced non-finite values")
    return float(vals @ w)


def hausdorff_derivative(l: Callable[[float], float], axis: FractalAxis,
                         point: float, step: float | None = None) -> float:
    """Stretched derivative dl/d(t - origin)**exponent at ``point``.

    Computed as a central difference of l divided by the local metric factor
    exponent * (point - origin)**(exponent - 1).  The default step is
    (point - origin) * 1e-6.
    """
    gap = point - axis.origin
    if gap <= 0.0:
        raise ValueError(f"point {point} must lie strictly after the origin {axis.origin}")
    if step is None:
        step = gap * 1e-6
    if step >= gap:
        raise ValueError(f"step {step} is too large for point - origin = {gap}")
    if step <= 0.0:
        raise ValueError("step must be positive")
    slope = (l(point + step) - l(point - step)) / (2.0 * step)
    metric = axis.exponent * gap ** (axis.exponent - 1.0)
    return slope / metric


def reset_horizontal(x, beta: float) -> np.ndarray:
    """Reset abscissas to xx = x + x**beta: each x plus its fractal distance from origin 0.

    Strictly increasing in each x, so the input ordering is preserved.
    Negative abscissas have no real stretch and are rejected.
    """
    xv = np.asarray(x, dtype=float)
    stretch = fractal_distance(FractalAxis(beta), xv)
    try:
        with np.errstate(over="raise"):
            return xv + stretch
    except FloatingPointError as exc:
        raise ValueError(
            f"horizontal reset overflows ({exc}): the abscissas are too large") from exc
