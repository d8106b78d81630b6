"""Least squares engines for the two model families.

Both solve a batch: one abscissa vector and a matrix of ordinate rows, one
fit per row; a single fit is a batch of one.  Polynomials are fitted in
closed form through an SVD of the Vandermonde design matrix, factored once
per batch.  Sinusoids a*sin(b*x + c) + d go through
variable projection: for a fixed frequency b the model is linear in
(A, B, d) with A sin(bx) + B cos(bx) + d, so the SSE is a one-dimensional
profile in b (Golub & Pereyra 1973).  The profile's closed form, from the
centered 2x2 normal equations, is scanned on a fixed frequency grid and
refined by safeguarded Newton on its analytic derivatives between the best
grid point's neighbours; the exact linear fit at the refined frequency is
the result, so the fit needs no further polish.  The scan's sin/cos table
depends on the abscissas alone: a batch sets it up once for all its rows,
and it is cached for batches on equal abscissas.  The rest of a sinusoid
fit is done row by row.
"""

from __future__ import annotations

import functools
import math
from dataclasses import dataclass

import numpy as np

POLYNOMIAL = "polynomial"
SINUSOID = "sinusoid"

# Why a fit stopped.  A closed-form solve and the refinement's step test count
# as converged; an optimum on an edge of the frequency domain does not.
CLOSED_FORM = "closed_form"
TOLERANCE = "tolerance"
BOUNDARY = "boundary"

# Frequency grid of the profile scan: k * base / _GRID_DENSITY for
# k = 1.._GRID_POINTS, base = 2*pi / abscissa span, so up to 8 periods over
# the span, and fewer than (n - 1) / 2 on n points.  The first and last grid
# frequencies are the ends of the search domain.
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
class FitBatch:
    """Fits of one model to each ordinate row of a batch on shared abscissas.

    Row i of ``params`` and entry i of ``sse``, ``iterations`` and
    ``stop_reasons`` describe the fit to row i; a single fit is a batch of
    one.  Each stop reason, CLOSED_FORM, TOLERANCE or BOUNDARY, says why
    that solve stopped.
    """

    model: ModelSpec
    params: np.ndarray
    sse: np.ndarray
    iterations: tuple[int, ...]
    stop_reasons: tuple[str, ...]

    @property
    def converged(self) -> np.ndarray:
        """For every fit, True unless its optimum lies on an edge of the frequency domain."""
        return np.array([reason != BOUNDARY for reason in self.stop_reasons], dtype=bool)

    def predict(self, x) -> np.ndarray:
        """Values of every fit at ``x``, one row per fit."""
        return predict(self.model, self.params, x)


def predict(model: ModelSpec, params, x) -> np.ndarray:
    """Evaluate the model elementwise at ``x``.

    ``params`` is one parameter vector or a stack of them, shape
    (..., n_params); a stack gives one set of values per vector, shape
    params.shape[:-1] + x.shape.  Polynomial coefficients are ordered
    highest degree first and evaluated by Horner's rule.  The arithmetic is
    elementwise, so every vector's values are the same bits in any stack.
    """
    p = np.asarray(params, dtype=float)
    if p.shape[-1:] != (model.n_params,):
        raise ValueError(
            f"{model.family} expects {model.n_params} parameters, got shape {p.shape}"
        )
    xv = np.asarray(x, dtype=float)
    # One array per parameter, broadcasting against x.
    coeffs = np.moveaxis(p, -1, 0).reshape((model.n_params,) + p.shape[:-1] + (1,) * xv.ndim)
    if model.family == POLYNOMIAL:
        acc = np.empty(np.broadcast_shapes(coeffs[0].shape, xv.shape))
        acc[...] = coeffs[0]
        for coeff in coeffs[1:]:
            acc *= xv
            acc += coeff
        return acc
    a, b, c, d = coeffs
    return a * np.sin(b * xv + c) + d


def fit_linear(degree: int, x: np.ndarray, ys: np.ndarray) -> FitBatch:
    """Ordinary least squares of a polynomial of the given degree to each row of ``ys``.

    The Vandermonde matrix of ``x`` is factored once by an SVD.  As in
    np.linalg.lstsq with rcond=None, singular values at most
    eps * max(n, degree + 1) times the largest count as zero, and a
    rank-deficient design raises SingularFitError.  The coefficients of all
    rows are one contraction with the pseudo-inverse, by np.einsum, which
    computes each row on its own: the rows of a BLAS matrix product change
    in the last bits with the number of rows, and a row's fit must be the
    same bits in any batch.  Abscissas so large that their powers overflow
    raise ValueError.
    """
    n_params = degree + 1
    if x.size < n_params:
        raise ValueError(f"degree {degree} needs at least {n_params} points, got {x.size}")
    # The transposed Vandermonde matrix, rows x**degree, ..., x, 1: the same
    # products as np.vander, which builds it row by row, ten times slower on
    # long data.
    powers = np.empty((n_params, x.size))
    powers[-1] = 1.0
    try:
        with np.errstate(over="raise"):
            for k in range(degree - 1, -1, -1):
                np.multiply(powers[k + 1], x, out=powers[k])
    except FloatingPointError as exc:
        raise ValueError(f"polynomial fit overflows ({exc}): the abscissas are too large") from exc
    u, s, vt = np.linalg.svd(powers.T, full_matrices=False)
    rank = int(np.count_nonzero(s > np.finfo(float).eps * max(powers.shape) * s[0]))
    if rank < n_params:
        raise SingularFitError(
            f"design matrix rank {rank} below {n_params}; abscissas are degenerate"
        )
    model = ModelSpec.polynomial(degree)
    params = np.einsum("mn,pn->mp", ys, (vt.T / s) @ u.T)
    residual = predict(model, params, x)
    residual -= ys
    sse = np.einsum("mn,mn->m", residual, residual)
    return FitBatch(model, params, sse, (0,) * len(ys), (CLOSED_FORM,) * len(ys))


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
    """The profile scan's frequencies; the first and last are the search domain's ends.

    A span so short that twice the last frequency overflows raises
    ValueError: the refinement bisects its bracket at (lo + hi) / 2.
    """
    span = float(x.max() - x.min())
    if span <= 0.0:
        raise ValueError("abscissas must span a positive interval")
    step = 2.0 * math.pi / span / _GRID_DENSITY
    # b_k * span = 2*pi*k / _GRID_DENSITY < pi * (n - 1): below Nyquist on equal spacing.
    points = min(_GRID_POINTS, (_GRID_DENSITY * (x.size - 1) - 1) // 2)
    # Python floats overflow to inf silently; numpy's product below gives the same bits.
    if not math.isfinite(2.0 * step * points):
        raise ValueError(f"abscissa span {span!r} is too short: the scan's frequencies overflow")
    return step * np.arange(1, points + 1)


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


def _grid_profiles(x: np.ndarray, ycs: list[np.ndarray], tss: list[float]) -> list[np.ndarray]:
    """Profile SSE at the grid frequencies of each centered ordinate row, for ranking them.

    Entry i belongs to ``ycs[i]``, whose sum of squares is ``tss[i]``; the
    SSE is tss minus the explained sum of squares of the 2x2 normal
    equations, and degenerate columns give +inf.  Abscissas whose table fits
    one block reuse it from _scan_table; longer ones are scanned block by
    block, uncached, each block serving every row, to bound memory.  Each
    row has its own matrix-vector products, so its values do not depend on
    the batch.
    """
    if x.size * _GRID_POINTS <= _GRID_BLOCK:
        blocks = [_scan_table(x.tobytes())]
    else:
        blocks = _scan_blocks(x)
    parts = [[] for _ in ycs]
    with np.errstate(divide="ignore", invalid="ignore"):
        for s, c, ss, cc, sc, det in blocks:
            for yc, t, row in zip(ycs, tss, parts):
                sy, cy = s @ yc, c @ yc
                row.append(t - (cc * sy * sy - 2.0 * sc * sy * cy + ss * cy * cy) / det)
    return [np.where(np.isfinite(p), p, np.inf) for p in map(np.concatenate, parts)]


def _linear_at(b: float, x: np.ndarray, y: np.ndarray) -> tuple[np.ndarray, float]:
    """Exact least squares at a fixed frequency: (a, b, c, d) and its SSE."""
    design = np.column_stack([np.sin(b * x), np.cos(b * x), np.ones_like(x)])
    (amp_s, amp_c, d), *_ = np.linalg.lstsq(design, y, rcond=None)
    r = design @ np.array([amp_s, amp_c, d]) - y
    # amp_s sin(bx) + amp_c cos(bx) = a sin(bx + c) with a cos c = amp_s, a sin c = amp_c.
    params = np.array([math.hypot(amp_s, amp_c), b, math.atan2(amp_c, amp_s), d])
    return params, float(r @ r)


def _profile_derivatives(b: float, u: np.ndarray, yc: np.ndarray,
                         tss: float) -> tuple[float, float, float]:
    """The closed-form profile f(b) = tss - R(b) and its analytic f' and f''.

    ``u`` are the abscissas shifted to mean zero, which keeps the derivative
    columns u cos(bu), ... accurate (the profile is shift-invariant).  With
    G the Gram matrix of the centered sin and cos columns, q their products
    with ``yc``, theta = G^-1 q and r = q' - G' theta: R = q^T theta,
    R' = 2 q'^T theta - theta^T G' theta and
    R'' = 2 q''^T theta + 2 r^T G^-1 r - theta^T G'' theta.  A singular G
    gives non-finite values, never an error.
    """
    bu = b * u
    sin, cos = np.sin(bu), np.cos(bu)
    us, uc = u * sin, u * cos
    # Rows s, c and their first and second derivatives in b, all centered.
    v = np.stack([sin, cos, uc, -us, -u * us, -u * uc])
    v -= v.mean(axis=1, keepdims=True)
    g = (v @ v.T).tolist()
    q0, q1, d0, d1, e0, e1 = (v @ yc).tolist()
    ss, sc, cc = g[0][0], g[0][1], g[1][1]
    det = ss * cc - sc * sc
    inv = 1.0 / det if det else math.inf
    # G' and G'' by the product rule; each is symmetric.
    ds, dsc, dc = 2.0 * g[2][0], g[2][1] + g[3][0], 2.0 * g[3][1]
    es = 2.0 * (g[4][0] + g[2][2])
    esc = g[4][1] + 2.0 * g[2][3] + g[5][0]
    ec = 2.0 * (g[5][1] + g[3][3])
    t0, t1 = (cc * q0 - sc * q1) * inv, (ss * q1 - sc * q0) * inv
    r0, r1 = d0 - (ds * t0 + dsc * t1), d1 - (dsc * t0 + dc * t1)
    w0, w1 = (cc * r0 - sc * r1) * inv, (ss * r1 - sc * r0) * inv
    explained = q0 * t0 + q1 * t1
    slope = 2.0 * (d0 * t0 + d1 * t1) - (ds * t0 * t0 + 2.0 * dsc * t0 * t1 + dc * t1 * t1)
    curvature = (2.0 * (e0 * t0 + e1 * t1) + 2.0 * (w0 * r0 + w1 * r1)
                 - (es * t0 * t0 + 2.0 * esc * t0 * t1 + ec * t1 * t1))
    return tss - explained, -slope, -curvature


def _newton_minimize(b: float, lo: float, hi: float, u: np.ndarray, yc: np.ndarray,
                     tss: float) -> tuple[float, int]:
    """Minimise the closed-form profile on [lo, hi], starting at its grid point b.

    Safeguarded Newton on the root of f': every evaluation shrinks the
    bracket to the side where f' changes sign, and a step that leaves the
    bracket, meets f'' <= 0 or is not finite becomes a bisection, which
    bounds the loop.  Stops once a step is at most sqrt(eps) * b; returns
    that point and the number of derivative evaluations.
    """
    rel = math.sqrt(np.finfo(float).eps)
    evaluations = 0
    while True:
        _, slope, curvature = _profile_derivatives(b, u, yc, tss)
        evaluations += 1
        if slope > 0.0:
            hi = b
        elif slope < 0.0:
            lo = b
        new = b - slope / curvature if curvature > 0.0 else math.nan
        if not lo < new < hi:
            new = 0.5 * (lo + hi)
        if abs(new - b) <= rel * b:
            return new, evaluations
        b = new


def fit_sinusoid(x: np.ndarray, ys: np.ndarray) -> FitBatch:
    """Least squares fit of a*sin(b*x + c) + d to each row of ``ys``.

    Each fit is global over frequencies b from 2*pi / (20 * span) up to 8
    periods over the span and below Nyquist, (n - 1) / 2 periods on n
    points: the scan, set up once per batch, ranks the grid frequencies, and
    Newton refines the best one between its neighbours (``iterations``
    counts its derivative evaluations).  An optimum on an edge of that
    domain (at the low end, the b -> 0 limit where the family degenerates to
    a quadratic) is the exact linear fit there, flagged by stop reason
    BOUNDARY.  Data faster than the domain's upper end are not always
    flagged: a whole number of periods above 8 fits a side lobe inside the
    domain, with stop reason TOLERANCE.  The parameters are canonicalized to
    b >= 0, a > 0, c in (-pi, pi].  Data so large that the fit overflows
    raise ValueError.
    """
    model = ModelSpec.sinusoid()
    if x.size < model.n_params:
        raise ValueError(f"sinusoid fits need at least {model.n_params} points, got {x.size}")
    params, sse = np.empty((len(ys), model.n_params)), np.empty(len(ys))
    iterations, reasons = np.empty(len(ys), dtype=int), [TOLERANCE] * len(ys)
    try:
        with np.errstate(over="raise"):
            bs = _frequency_grid(x)
            u = x - x.mean()
            ycs = [y - y.mean() for y in ys]
            tss = [float(yc @ yc) for yc in ycs]
            for i, profile in enumerate(_grid_profiles(x, ycs, tss)):
                k = int(np.argmin(profile))
                lo, hi = bs[max(k - 1, 0)], bs[min(k + 1, bs.size - 1)]
                b, iterations[i] = _newton_minimize(float(bs[k]), float(lo), float(hi),
                                                    u, ycs[i], tss[i])
                row, sse[i] = _linear_at(b, x, ys[i])
                # A bracket that touches an end of the domain keeps the end if it fits no worse.
                for edge in (lo, hi):
                    if edge in (bs[0], bs[-1]):
                        edge_row, edge_sse = _linear_at(edge, x, ys[i])
                        if edge_sse <= sse[i]:
                            row, sse[i], reasons[i] = edge_row, edge_sse, BOUNDARY
                            break
                params[i] = canonicalize_sinusoid(row)
    except FloatingPointError as exc:
        raise ValueError(f"sinusoid fit overflows ({exc}): the data are too large") from exc
    return FitBatch(model, params, sse, tuple(iterations.tolist()), tuple(reasons))


def fit_batch(model: ModelSpec, x, ys) -> FitBatch:
    """Fit the model to each row of the matrix ``ys``, all on the abscissas ``x``.

    Dispatches to the family's solver.
    """
    x, ys = np.asarray(x, dtype=float), np.asarray(ys, dtype=float)
    if x.ndim != 1 or ys.ndim != 2 or ys.shape[1] != x.size:
        raise ValueError("ys must be a matrix whose rows are as long as the one-dimensional x")
    if not (np.all(np.isfinite(x)) and np.all(np.isfinite(ys))):
        raise ValueError("observations must be finite")
    if model.family == POLYNOMIAL:
        return fit_linear(model.degree, x, ys)
    return fit_sinusoid(x, ys)
