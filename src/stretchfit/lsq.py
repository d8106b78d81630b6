"""Least squares engines for the two model families.

Polynomials are fitted in closed form through an orthogonal factorization
of the Vandermonde design matrix.  Sinusoids a*sin(b*x + c) + d go through
variable projection: for a fixed frequency b the model is linear in
(A, B, d) with A sin(bx) + B cos(bx) + d, so the SSE is a one-dimensional
profile in b (Golub & Pereyra 1973).  The profile is scanned on a fixed
frequency grid and minimised by Brent's method between the best grid
point's neighbours, both through the closed form of the centered 2x2
normal equations; the exact linear fit at Brent's optimum is the result,
so the fit needs no further polish.  The scan's sin/cos table depends on
the abscissas alone and is cached for fits on equal abscissas.
"""

from __future__ import annotations

import functools
import math
from dataclasses import dataclass

import numpy as np

POLYNOMIAL = "polynomial"
SINUSOID = "sinusoid"

# Why a fit stopped.  A closed-form solve and Brent's tolerance test count
# as converged; an optimum on an edge of the frequency domain does not.
CLOSED_FORM = "closed_form"
TOLERANCE = "tolerance"
BOUNDARY = "boundary"
STOP_REASONS = (CLOSED_FORM, TOLERANCE, BOUNDARY)

# Frequency grid of the profile scan: k * base / _GRID_DENSITY for
# k = 1.._GRID_POINTS, base = 2*pi / abscissa span, so up to 8 periods over
# the span.  The first and last grid frequencies are the ends of the search
# domain.
_GRID_DENSITY = 20
_GRID_POINTS = 160
# Largest (frequencies x points) block of one vectorised profile pass, which
# bounds its memory on long data sets.
_GRID_BLOCK = 1 << 16
# Scan tables kept for reuse by fits on equal abscissas: at most one block
# each (1 MiB of sin/cos columns), enough for a trial's x and the stretched
# abscissas of both grid betas.
_SCAN_CACHE_SIZE = 4


class SingularFitError(RuntimeError):
    """The linear design matrix is rank deficient."""


# No solver raises this any more; perfbench/tracing.py still binds the name.
class NonConvergenceError(RuntimeError):
    """A fit missed its tolerance."""


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
        """True unless the optimum lies on an edge of the frequency domain."""
        return self.stop_reason != BOUNDARY

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
    """The profile scan's frequencies; the first and last are the search domain's ends."""
    span = float(x.max() - x.min())
    if span <= 0.0:
        raise ValueError("abscissas must span a positive interval")
    base = 2.0 * math.pi / span
    return base / _GRID_DENSITY * np.arange(1, _GRID_POINTS + 1)


def _profile_from_gram(tss, ss, cc, sc, det, sy, cy):
    """Profile SSE from the Gram entries of the centered sin and cos columns.

    tss minus the explained sum of squares of the 2x2 normal equations
    (determinant det = ss*cc - sc*sc, right-hand sides sy and cy against the
    centered ordinates); degenerate columns give +inf.
    """
    with np.errstate(divide="ignore", invalid="ignore"):
        out = tss - (cc * sy * sy - 2.0 * sc * sy * cy + ss * cy * cy) / det
    return np.where(np.isfinite(out), out, np.inf)


def _scan_blocks(x: np.ndarray):
    """Centered sin/cos columns of the grid frequencies and their Gram entries, by blocks.

    Yields (s, c, ss, cc, sc, det) per block of at most _GRID_BLOCK cells.
    exp(i b_k x) comes from a running product over k (about k ulps of
    error, ample for a ranking), and centering removes the offset column.
    """
    bs = _frequency_grid(x)
    step = np.exp(1j * bs[0] * x)
    phase = np.ones_like(step)
    rows = max(1, _GRID_BLOCK // x.size)
    for lo in range(0, bs.size, rows):
        z = phase * np.cumprod(np.broadcast_to(step, (min(rows, bs.size - lo), x.size)), axis=0)
        phase = z[-1]
        s = z.imag - z.imag.mean(axis=1, keepdims=True)
        c = z.real - z.real.mean(axis=1, keepdims=True)
        ss = np.einsum("ij,ij->i", s, s)
        cc = np.einsum("ij,ij->i", c, c)
        sc = np.einsum("ij,ij->i", s, c)
        yield s, c, ss, cc, sc, ss * cc - sc * sc


@functools.lru_cache(maxsize=_SCAN_CACHE_SIZE)
def _scan_table(key: bytes) -> tuple[np.ndarray, ...]:
    """The one-block scan table of the abscissas whose float64 bytes are ``key``.

    Trials rebuild equal abscissa vectors as new arrays, so the cache is
    keyed on their bytes; the arrays are shared and read-only.
    """
    table = next(_scan_blocks(np.frombuffer(key)))
    for a in table:
        a.flags.writeable = False
    return table


def _grid_profile(x: np.ndarray, yc: np.ndarray, tss: float) -> np.ndarray:
    """Profile SSE at the grid frequencies, for ranking them.

    ``yc`` are the centered ordinates and ``tss`` their sum of squares.
    Abscissas whose table fits one block reuse it from _scan_table; longer
    ones are scanned block by block, uncached, to bound memory.
    """
    if x.size * _GRID_POINTS <= _GRID_BLOCK:
        blocks = [_scan_table(x.tobytes())]
    else:
        blocks = _scan_blocks(x)
    return np.concatenate([
        _profile_from_gram(tss, ss, cc, sc, det, s @ yc, c @ yc)
        for s, c, ss, cc, sc, det in blocks
    ])


def _profile_at(b: float, x: np.ndarray, yc: np.ndarray, tss: float) -> float:
    """The scan's closed form at one frequency: its profile SSE, +inf if degenerate."""
    bx = b * x
    s = np.sin(bx)
    c = np.cos(bx)
    s -= s.mean()
    c -= c.mean()
    ss, cc, sc = s @ s, c @ c, s @ c
    return float(_profile_from_gram(tss, ss, cc, sc, ss * cc - sc * sc, s @ yc, c @ yc))


def _linear_at(b: float, x: np.ndarray, y: np.ndarray) -> tuple[np.ndarray, float]:
    """Exact least squares at a fixed frequency: (a, b, c, d) and its SSE."""
    design = np.column_stack([np.sin(b * x), np.cos(b * x), np.ones_like(x)])
    (amp_s, amp_c, d), *_ = np.linalg.lstsq(design, y, rcond=None)
    r = design @ np.array([amp_s, amp_c, d]) - y
    # amp_s sin(bx) + amp_c cos(bx) = a sin(bx + c) with a cos c = amp_s, a sin c = amp_c.
    params = np.array([math.hypot(amp_s, amp_c), b, math.atan2(amp_c, amp_s), d])
    return params, float(r @ r)


def _brent_minimize(f, lo: float, hi: float) -> tuple[float, float, int]:
    """Minimise f on [lo, hi], lo > 0, to a relative precision of sqrt(eps).

    Brent's method (golden section with parabolic steps), as in fmin of
    Forsythe, Malcolm & Moler (1977); returns (x, f(x)) of the best point
    and the number of evaluations of f.
    """
    golden = (3.0 - math.sqrt(5.0)) / 2.0
    rel = math.sqrt(np.finfo(float).eps)
    x = w = v = lo + golden * (hi - lo)
    fx = fw = fv = f(x)
    evaluations = 1
    d = e = 0.0
    while True:
        mid = 0.5 * (lo + hi)
        tol1 = rel * abs(x)
        tol2 = 2.0 * tol1
        if abs(x - mid) <= tol2 - 0.5 * (hi - lo):
            return x, fx, evaluations
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
        evaluations += 1
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
    """Global sinusoid fit: profile scan, then Brent on the closed-form profile.

    The refinement minimises the scan's closed form between the best grid
    point's neighbours, and the exact linear fit at Brent's optimum is the
    result; returns (params, sse, profile evaluations, stop reason).  When
    that bracket touches the lowest or the highest grid frequency and the
    exact SSE there is no worse than at the refined point, the constrained
    optimum lies on the search domain's edge (at the low end, the b -> 0
    limit where the family degenerates to a quadratic): the exact linear fit
    at that edge is returned with stop reason BOUNDARY.
    """
    bs = _frequency_grid(x)
    yc = y - y.mean()
    tss = float(yc @ yc)
    k = int(np.argmin(_grid_profile(x, yc, tss)))
    lo, hi = bs[max(k - 1, 0)], bs[min(k + 1, bs.size - 1)]
    b, _, evaluations = _brent_minimize(lambda v: _profile_at(v, x, yc, tss), lo, hi)
    params, sse = _linear_at(b, x, y)
    for edge in (lo, hi):
        if edge in (bs[0], bs[-1]):
            edge_params, edge_sse = _linear_at(edge, x, y)
            if edge_sse <= sse:
                return edge_params, edge_sse, evaluations, BOUNDARY
    return params, sse, evaluations, TOLERANCE


def fit_nonlinear(data: Dataset) -> FitResult:
    """Least squares fit of a*sin(b*x + c) + d.

    The fit is global over frequencies b in [b_lo, 8 * 2*pi / span] by
    variable projection.  An optimum on an edge of that domain is not
    raised but flagged by stop reason BOUNDARY.  Data faster than the
    domain's upper end are not always flagged: a whole number of periods
    above 8 fits a side lobe inside the domain, with stop reason TOLERANCE.
    The parameters are canonicalized to b >= 0, a > 0, c in (-pi, pi].
    """
    model = ModelSpec.sinusoid()
    if len(data) < model.n_params:
        raise ValueError(f"sinusoid fits need at least {model.n_params} points, got {len(data)}")
    params, sse, iters, reason = _variable_projection(data.x, data.y)
    return FitResult(model, canonicalize_sinusoid(params), sse, iters, reason)


def fit(model: ModelSpec, data: Dataset) -> FitResult:
    """Dispatch to the family's solver."""
    if model.family == POLYNOMIAL:
        return fit_linear(model.degree, data)
    return fit_nonlinear(data)
