"""Least squares engines for the two model families.

Polynomials are fitted in closed form through an orthogonal factorization
of the Vandermonde design matrix.  Sinusoids a*sin(b*x + c) + d go through
variable projection: for a fixed frequency b the model is linear in
(A, B, d) with A sin(bx) + B cos(bx) + d, so the SSE is a one-dimensional
profile in b (Golub & Pereyra 1973).  The profile is scanned on a fixed
frequency grid, refined between the best grid point's neighbours, and the
optimum is polished by a damped Gauss-Newton iteration with analytic
Jacobian.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

POLYNOMIAL = "polynomial"
SINUSOID = "sinusoid"

# Why a fit stopped.  A closed-form solve, the tolerance test and a
# saturated damping (no representable step lowers the SSE) count as
# converged; the iteration cap and the frequency boundary do not.
CLOSED_FORM = "closed_form"
TOLERANCE = "tolerance"
DAMPING_SATURATED = "damping_saturated"
ITERATION_CAP = "iteration_cap"
BOUNDARY = "boundary"
STOP_REASONS = (CLOSED_FORM, TOLERANCE, DAMPING_SATURATED, ITERATION_CAP, BOUNDARY)
_CONVERGED = (CLOSED_FORM, TOLERANCE, DAMPING_SATURATED)

# Damped Gauss-Newton controls: multiplicative damping, relative SSE change /
# step-size termination, hard iteration cap.
_DAMPING_INIT = 1e-3
_DAMPING_UP = 10.0
_DAMPING_DOWN = 10.0
_SSE_REL_TOL = 1e-12
_STEP_TOL = 1e-10
_MAX_ITER = 200

# Frequency grid of the profile scan: k * base / _GRID_DENSITY for
# k = 1.._GRID_POINTS, base = 2*pi / abscissa span, so up to 8 periods over
# the span.  The first grid frequency is the lower end of the search domain.
_GRID_DENSITY = 20
_GRID_POINTS = 160
# Largest (frequencies x points) block of one vectorised profile pass, which
# bounds its memory on long data sets.
_GRID_BLOCK = 1 << 16


class SingularFitError(RuntimeError):
    """The linear design matrix is rank deficient."""


class NonConvergenceError(RuntimeError):
    """A Gauss-Newton run from a caller's start missed tolerance.

    Carries the lowest-SSE result seen so far in ``best``.
    """

    def __init__(self, message: str, best: "FitResult"):
        super().__init__(message)
        self.best = best


@dataclass(frozen=True)
class Dataset:
    """Paired observation vectors (x_i, y_i)."""

    x: np.ndarray
    y: np.ndarray

    def __post_init__(self) -> None:
        x = np.asarray(self.x, dtype=float)
        y = np.asarray(self.y, dtype=float)
        if x.ndim != 1 or y.ndim != 1 or x.size != y.size:
            raise ValueError("x and y must be one-dimensional and equally long")
        if not (np.all(np.isfinite(x)) and np.all(np.isfinite(y))):
            raise ValueError("observations must be finite")
        object.__setattr__(self, "x", x)
        object.__setattr__(self, "y", y)

    def __len__(self) -> int:
        return self.x.size


@dataclass(frozen=True)
class ModelSpec:
    """A regression family: polynomial of fixed degree, or sinusoid."""

    family: str
    degree: int | None = None

    def __post_init__(self) -> None:
        if self.family == POLYNOMIAL:
            if self.degree is None or self.degree < 0:
                raise ValueError("polynomial models need a nonnegative degree")
        elif self.family == SINUSOID:
            if self.degree is not None:
                raise ValueError("sinusoid models take no degree")
        else:
            raise ValueError(f"unknown model family {self.family!r}")

    @classmethod
    def polynomial(cls, degree: int) -> "ModelSpec":
        return cls(POLYNOMIAL, degree)

    @classmethod
    def sinusoid(cls) -> "ModelSpec":
        return cls(SINUSOID)

    @property
    def n_params(self) -> int:
        """Coefficient count: degree + 1, or 4 for (a, b, c, d)."""
        return self.degree + 1 if self.family == POLYNOMIAL else 4


@dataclass(frozen=True)
class FitResult:
    """A fitted coefficient vector plus solver diagnostics.

    ``stop_reason`` is one of STOP_REASONS and says why the solver stopped.
    """

    model: ModelSpec
    params: np.ndarray
    sse: float
    iterations: int
    stop_reason: str

    def __post_init__(self) -> None:
        p = np.asarray(self.params, dtype=float)
        if p.size != self.model.n_params:
            raise ValueError(
                f"{self.model.family} expects {self.model.n_params} parameters, got {p.size}"
            )
        if self.stop_reason not in STOP_REASONS:
            raise ValueError(f"unknown stop reason {self.stop_reason!r}")
        object.__setattr__(self, "params", p)

    @property
    def converged(self) -> bool:
        """True unless the solver stopped at its iteration cap or at the boundary."""
        return self.stop_reason in _CONVERGED

    def predict(self, x) -> np.ndarray:
        return predict(self.model, self.params, x)


def predict(model: ModelSpec, params, x) -> np.ndarray:
    """Evaluate the model elementwise at ``x``.

    Polynomial coefficients are ordered highest degree first and evaluated
    by Horner's rule.
    """
    p = np.asarray(params, dtype=float)
    if p.size != model.n_params:
        raise ValueError(
            f"{model.family} expects {model.n_params} parameters, got {p.size}"
        )
    xv = np.asarray(x, dtype=float)
    if model.family == POLYNOMIAL:
        acc = np.full_like(xv, p[0])
        for coeff in p[1:]:
            acc = acc * xv + coeff
        return acc
    a, b, c, d = p
    return a * np.sin(b * xv + c) + d


def fit_linear(degree: int, data: Dataset) -> FitResult:
    """Ordinary least squares for a polynomial of the given degree.

    Solved through an SVD-based orthogonal factorization of the Vandermonde
    matrix rather than normal equations; a rank-deficient design raises
    SingularFitError.
    """
    n_params = degree + 1
    if len(data) < n_params:
        raise ValueError(
            f"degree {degree} needs at least {n_params} points, got {len(data)}"
        )
    design = np.vander(data.x, n_params)
    coeffs, _, rank, _ = np.linalg.lstsq(design, data.y, rcond=None)
    if rank < n_params:
        raise SingularFitError(
            f"design matrix rank {rank} below {n_params}; abscissas are degenerate"
        )
    residual = design @ coeffs - data.y
    model = ModelSpec.polynomial(degree)
    return FitResult(model, coeffs, float(residual @ residual), 0, CLOSED_FORM)


def _sinusoid_residual_jacobian(params: np.ndarray, x: np.ndarray, y: np.ndarray):
    a, b, c, _ = params
    arg = b * x + c
    s, co = np.sin(arg), np.cos(arg)
    r = params[0] * s + params[3] - y
    jac = np.column_stack([s, a * x * co, a * co, np.ones_like(x)])
    return r, jac


def _damped_gauss_newton(x: np.ndarray, y: np.ndarray, p0) -> tuple[np.ndarray, float, int, str]:
    """One solver run from one start; returns (params, sse, iterations, stop_reason)."""
    p = np.asarray(p0, dtype=float).copy()
    r, jac = _sinusoid_residual_jacobian(p, x, y)
    sse = float(r @ r)
    lam = _DAMPING_INIT
    eye = np.eye(4)
    for it in range(1, _MAX_ITER + 1):
        grad = jac.T @ r
        hess = jac.T @ jac
        try:
            step = np.linalg.solve(hess + lam * eye, -grad)
        except np.linalg.LinAlgError:
            lam *= _DAMPING_UP
            continue
        candidate = p + step
        r_new, jac_new = _sinusoid_residual_jacobian(candidate, x, y)
        sse_new = float(r_new @ r_new)
        if not math.isfinite(sse_new):
            sse_new = math.inf
        # A step that moves the SSE by less than the tolerance either way ends
        # the run: at the optimum, rounding decides the sign of the change.
        settled = (abs(sse - sse_new) <= _SSE_REL_TOL * sse
                   or float(np.max(np.abs(step))) < _STEP_TOL)
        if sse_new <= sse:
            p, r, jac, sse = candidate, r_new, jac_new, sse_new
            lam = max(lam / _DAMPING_DOWN, 1e-15)
        else:
            lam *= _DAMPING_UP
        if settled:
            return p, sse, it, TOLERANCE
        if lam > 1e15:
            # Steps this damped are numerically zero: stationary point.
            return p, sse, it, DAMPING_SATURATED
    return p, sse, _MAX_ITER, ITERATION_CAP


def canonicalize_sinusoid(params) -> np.ndarray:
    """Resolve the sign symmetries of a*sin(b*x + c) + d: b >= 0, a > 0, c in (-pi, pi].

    (a, b, c, d) with b < 0 is the curve (a, -b, pi - c, d), and
    (a, b, c, d) the curve (-a, b, c + pi, d).
    """
    a, b, c, d = (float(v) for v in np.asarray(params, dtype=float))
    if b < 0.0:
        b, c = -b, math.pi - c
    if a < 0.0:
        a, c = -a, c + math.pi
    c = (c + math.pi) % (2.0 * math.pi) - math.pi
    if c <= -math.pi:
        # The modulo lands on the open boundary only when c + pi divides 2*pi.
        c += 2.0 * math.pi
    return np.array([a, b, c, d])


def _frequency_grid(x: np.ndarray) -> np.ndarray:
    """The profile scan's frequencies; the first is the search domain's lower end."""
    span = float(x.max() - x.min())
    if span <= 0.0:
        raise ValueError("abscissas must span a positive interval")
    base = 2.0 * math.pi / span
    return base / _GRID_DENSITY * np.arange(1, _GRID_POINTS + 1)


def _grid_profile(x: np.ndarray, y: np.ndarray, unit: float, count: int) -> np.ndarray:
    """Profile SSE at the frequencies k * unit, k = 1..count, for ranking them.

    One vectorised (frequencies x n) pass per block: exp(i k unit x) comes
    from a running product over k (about k ulps of error, ample for a
    ranking), centering removes the offset column, and the 2x2 normal
    equations of the centered sin and cos columns give the explained sum of
    squares.  Frequencies whose columns are degenerate get +inf.
    """
    yc = y - y.mean()
    tss = float(yc @ yc)
    step = np.exp(1j * unit * x)
    phase = np.ones_like(step)
    rows = max(1, _GRID_BLOCK // x.size)
    out = np.empty(count)
    with np.errstate(divide="ignore", invalid="ignore"):
        for lo in range(0, count, rows):
            z = phase * np.cumprod(np.broadcast_to(step, (min(rows, count - lo), x.size)), axis=0)
            phase = z[-1]
            s = z.imag - z.imag.mean(axis=1, keepdims=True)
            c = z.real - z.real.mean(axis=1, keepdims=True)
            ss = np.einsum("ij,ij->i", s, s)
            cc = np.einsum("ij,ij->i", c, c)
            sc = np.einsum("ij,ij->i", s, c)
            sy, cy = s @ yc, c @ yc
            explained = (cc * sy * sy - 2.0 * sc * sy * cy + ss * cy * cy) / (ss * cc - sc * sc)
            out[lo:lo + z.shape[0]] = tss - explained
    return np.where(np.isfinite(out), out, np.inf)


def _linear_at(b: float, x: np.ndarray, y: np.ndarray) -> tuple[np.ndarray, float]:
    """Exact least squares at a fixed frequency: (a, b, c, d) and its SSE."""
    design = np.column_stack([np.sin(b * x), np.cos(b * x), np.ones_like(x)])
    (amp_s, amp_c, d), *_ = np.linalg.lstsq(design, y, rcond=None)
    r = design @ np.array([amp_s, amp_c, d]) - y
    # amp_s sin(bx) + amp_c cos(bx) = a sin(bx + c) with a cos c = amp_s, a sin c = amp_c.
    params = np.array([math.hypot(amp_s, amp_c), b, math.atan2(amp_c, amp_s), d])
    return params, float(r @ r)


def _brent_minimize(f, lo: float, hi: float) -> tuple[float, float]:
    """Minimise f on [lo, hi], lo > 0, to a relative precision of sqrt(eps).

    Brent's method (golden section with parabolic steps), as in fmin of
    Forsythe, Malcolm & Moler (1977); returns (x, f(x)) of the best point.
    """
    golden = (3.0 - math.sqrt(5.0)) / 2.0
    rel = math.sqrt(np.finfo(float).eps)
    x = w = v = lo + golden * (hi - lo)
    fx = fw = fv = f(x)
    d = e = 0.0
    while True:
        mid = 0.5 * (lo + hi)
        tol1 = rel * abs(x)
        tol2 = 2.0 * tol1
        if abs(x - mid) <= tol2 - 0.5 * (hi - lo):
            return x, fx
        parabolic = False
        if abs(e) > tol1:
            r = (x - w) * (fx - fv)
            q = (x - v) * (fx - fw)
            p = (x - v) * q - (x - w) * r
            q = 2.0 * (q - r)
            if q > 0.0:
                p = -p
            q = abs(q)
            if abs(p) < abs(0.5 * q * e) and q * (lo - x) < p < q * (hi - x):
                e, d = d, p / q
                if (x + d) - lo < tol2 or hi - (x + d) < tol2:
                    d = tol1 if x < mid else -tol1
                parabolic = True
        if not parabolic:
            e = (hi - x) if x < mid else (lo - x)
            d = golden * e
        u = x + (d if abs(d) >= tol1 else math.copysign(tol1, d))
        fu = f(u)
        if fu <= fx:
            if u < x:
                hi = x
            else:
                lo = x
            v, fv, w, fw, x, fx = w, fw, x, fx, u, fu
        else:
            if u < x:
                lo = u
            else:
                hi = u
            if fu <= fw or w == x:
                v, fv, w, fw = w, fw, u, fu
            elif fu <= fv or v == x or v == w:
                v, fv = u, fu


def _variable_projection(x: np.ndarray, y: np.ndarray) -> tuple[np.ndarray, float, int, str]:
    """Global sinusoid fit: profile scan, 1-D refinement, Gauss-Newton polish.

    The refinement minimises the exact profile between the best grid
    point's neighbours.  When that bracket starts at the lowest grid
    frequency b_lo and the profile there is no worse than the refined
    point, the constrained optimum lies on the search domain's edge (the
    b -> 0 limit, where the family degenerates to a quadratic): the exact
    linear fit at b_lo is returned with stop reason BOUNDARY.
    """
    bs = _frequency_grid(x)
    k = int(np.argmin(_grid_profile(x, y, bs[0], bs.size)))
    lo, hi = bs[max(k - 1, 0)], bs[min(k + 1, bs.size - 1)]
    b, sse = _brent_minimize(lambda v: _linear_at(v, x, y)[1], lo, hi)
    if lo == bs[0]:
        edge, edge_sse = _linear_at(lo, x, y)
        if edge_sse <= sse:
            return edge, edge_sse, 0, BOUNDARY
    return _damped_gauss_newton(x, y, _linear_at(b, x, y)[0])


def fit_nonlinear(data: Dataset, init=None, *, model: ModelSpec | None = None) -> FitResult:
    """Least squares fit of a*sin(b*x + c) + d.

    Without ``init`` the fit is global over frequencies b in [b_lo, 8 * 2*pi
    / span] by variable projection and never raises: a result that did not
    converge is flagged by its stop reason (BOUNDARY or ITERATION_CAP).
    With ``init`` Gauss-Newton runs once from that point, and missing
    tolerance raises NonConvergenceError carrying the best result.  The
    parameters are canonicalized to b >= 0, a > 0, c in (-pi, pi].
    """
    if model is None:
        model = ModelSpec.sinusoid()
    if model.family != SINUSOID:
        raise ValueError("fit_nonlinear only supports the sinusoid family")
    if len(data) < model.n_params:
        raise ValueError(f"sinusoid fits need at least {model.n_params} points, got {len(data)}")

    if init is None:
        params, sse, iters, reason = _variable_projection(data.x, data.y)
        return FitResult(model, canonicalize_sinusoid(params), sse, iters, reason)

    p0 = np.asarray(init, dtype=float)
    if p0.size != 4:
        raise ValueError("sinusoid init must have 4 parameters (a, b, c, d)")
    params, sse, iters, reason = _damped_gauss_newton(data.x, data.y, p0)
    result = FitResult(model, canonicalize_sinusoid(params), sse, iters, reason)
    if not result.converged:
        raise NonConvergenceError(f"no convergence within {_MAX_ITER} iterations", result)
    return result


def fit(model: ModelSpec, data: Dataset, init=None) -> FitResult:
    """Dispatch to the family's solver."""
    if model.family == POLYNOMIAL:
        return fit_linear(model.degree, data)
    return fit_nonlinear(data, init, model=model)
