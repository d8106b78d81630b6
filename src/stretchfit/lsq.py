"""Least squares engines for the two model families.

Both solve a batch: one abscissa vector and a matrix of ordinate rows, one
fit per row; a single fit is a batch of one.  Polynomials are fitted in
closed form through an SVD of the Vandermonde design matrix, factored once
per batch.  Sinusoids a*sin(b*x + c) + d go through variable projection:
for a fixed frequency b the model is linear in (A, B, d) with
A sin(bx) + B cos(bx) + d, so the SSE is a one-dimensional profile in b
(Golub & Pereyra 1973).  The search runs in span units, on t = (x - min) /
span and w = b * span, so it does not depend on where the abscissas lie or
on their scale.  The profile is scanned on a fixed frequency grid and
refined by a safeguarded secant on its slope (by the envelope theorem, the
linear solve's) between the best grid point's neighbours; the result is the
exact linear fit in x there.  Scan and solve are one closed form: centering
removes the offset, one Gram-Schmidt step orthogonalises cos against sin,
and lstsq's rank rule drops a column of rounding noise.  The scan's table
depends on the abscissas alone: set up once per batch, cached for equal ones.
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

# Frequency grid of the profile scan in span units: 2*pi * k / _GRID_DENSITY
# for k = 1.._GRID_POINTS, so up to 8 periods over the span, and fewer than
# (n - 1) / 2 on n points.  The first and last grid frequencies are the ends
# of the search domain.
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


def _frequency_grid(levels: int) -> np.ndarray:
    """The scan's frequencies in span units; the first and last are the search domain's ends."""
    # w_k = 2*pi*k / _GRID_DENSITY < pi * (levels - 1): below Nyquist on equally spaced distinct
    # abscissas, short of the b -> 0 limit's aliases (b = 2*pi on integers with replicates).
    points = min(_GRID_POINTS, (_GRID_DENSITY * (levels - 1) - 1) // 2)
    return 2.0 * math.pi / _GRID_DENSITY * np.arange(1, points + 1)


def _rank_floor(n: int) -> float:
    """np.linalg.lstsq's rank rule: a centered column of squared norm at most this is zero."""
    # A norm bound of eps * sqrt(n), the scale of n sin or cos values, times n (at least 3).
    return (np.finfo(float).eps * max(n, 3)) ** 2 * n


def _scan_blocks(t: np.ndarray):
    """Centered sin/cos columns of the grid frequencies, by blocks, as _centered_fit takes them.

    Yields (s, c, 1/|s|^2, 1/|c|^2) per block of at most _GRID_BLOCK cells:
    each cos row has lost its projection on its sin row (one Gram-Schmidt
    step), and a column the rank rule drops has inverse squared norm 0.  The
    first block is sin and cos of w_k t, later ones turn it by lo * w_1 t: a
    few ulps, where a running product's k ulps lift noise over the rule.
    """
    ws = _frequency_grid(np.unique(t).size)
    floor = _rank_floor(t.size)
    rows = max(1, _GRID_BLOCK // t.size)
    wt = np.multiply.outer(ws[:rows], t)
    head_s, head_c = np.sin(wt), np.cos(wt)
    for lo in range(0, ws.size, rows):
        if lo == 0:
            s, c = head_s.copy(), head_c.copy()
        else:
            turn_s, turn_c, m = np.sin(lo * ws[0] * t), np.cos(lo * ws[0] * t), ws.size - lo
            s = head_s[:m] * turn_c + head_c[:m] * turn_s
            c = head_c[:m] * turn_c - head_s[:m] * turn_s
        s -= s.mean(axis=1, keepdims=True)
        c -= c.mean(axis=1, keepdims=True)
        ss = np.einsum("ij,ij->i", s, s)
        inv_ss = np.divide(1.0, ss, out=np.zeros_like(ss), where=ss > floor)
        c -= (np.einsum("ij,ij->i", s, c) * inv_ss)[:, None] * s
        cc = np.einsum("ij,ij->i", c, c)
        yield s, c, inv_ss, np.divide(1.0, cc, out=np.zeros_like(cc), where=cc > floor)


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


def _grid_profiles(t: np.ndarray, ycs: list[np.ndarray]) -> list[np.ndarray]:
    """Profile SSE at the grid frequencies of each centered ordinate row, for ranking them.

    Entry i belongs to ``ycs[i]``: its sum of squares less its projections
    on the orthogonal columns of _scan_blocks.  Abscissas whose table fits
    one block reuse it from _scan_table; longer ones are scanned block by
    block, uncached, each block serving every row, to bound memory.  Each
    row has its own matrix-vector products, so its values do not depend on
    the batch.
    """
    if t.size * _GRID_POINTS <= _GRID_BLOCK:
        blocks = [_scan_table(t.tobytes())]
    else:
        blocks = _scan_blocks(t)
    parts = [[] for _ in ycs]
    for s, c, inv_ss, inv_cc in blocks:
        for yc, row in zip(ycs, parts):
            sy, cy = s @ yc, c @ yc
            row.append(sy * sy * inv_ss + cy * cy * inv_cc)
    return [yc.dot(yc) - np.concatenate(row) for yc, row in zip(ycs, parts)]


def _centered_fit(sin: np.ndarray, cos: np.ndarray, yc: np.ndarray):
    """Least squares of centered ordinates on sin and cos: (A, B, the columns' means, residual).

    One Gram-Schmidt step orthogonalises the centered cos against the centered sin
    (Bjorck 1967).  A column left under the rank rule of _rank_floor counts as
    zero: its amplitude is 0.
    """
    n = sin.size
    means = np.add.reduce(sin) / n, np.add.reduce(cos) / n
    s, c = sin - means[0], cos - means[1]
    tol = _rank_floor(n)
    ss = s.dot(s)
    proj, alpha = (s.dot(c) / ss, s.dot(yc) / ss) if ss > tol else (0.0, 0.0)
    c = c - proj * s
    cc = c.dot(c)
    amp_c = c.dot(yc) / cc if cc > tol else 0.0
    return alpha - amp_c * proj, amp_c, means, yc - alpha * s - amp_c * c


def _linear_at(b: float, x: np.ndarray, y: np.ndarray) -> tuple[np.ndarray, float]:
    """Exact least squares at a fixed frequency b > 0: canonical (a, b, c, d) and its SSE."""
    y_mean = np.add.reduce(y) / y.size
    amp_s, amp_c, means, r = _centered_fit(np.sin(b * x), np.cos(b * x), y - y_mean)
    # a sin(bx + c) with a >= 0, a cos c = amp_s, a sin c = amp_c; + 0.0 keeps atan2 off -pi.
    d = y_mean - amp_s * means[0] - amp_c * means[1]
    params = np.array([math.hypot(amp_s, amp_c), b, math.atan2(amp_c + 0.0, amp_s), d])
    return params, float(r.dot(r))


def _profile_slope(w: float, t: np.ndarray, yc: np.ndarray) -> float:
    """The slope in w of the closed-form profile f(w) = min over (A, B, d) of the SSE.

    By the envelope theorem of variable projection, f' is the SSE's partial
    derivative in w at the optimal coefficients: -2 r^T t (A cos wt - B sin wt),
    with A, B and the residual r from _centered_fit.
    """
    wt = w * t
    sin, cos = np.sin(wt), np.cos(wt)
    amp_s, amp_c, _, r = _centered_fit(sin, cos, yc)
    return -2.0 * float(r.dot(t * (amp_s * cos - amp_c * sin)))


def _secant_minimize(w: float, lo: float, hi: float, curvature: float, t: np.ndarray,
                     yc: np.ndarray) -> tuple[float, int]:
    """Minimise the closed-form profile on [lo, hi], starting at its grid point w.

    Safeguarded secant on the root of f': every evaluation shrinks the
    bracket to the side where f' changes sign.  The first step divides by
    ``curvature``, later ones by the secant of the last two slopes; a step
    that leaves the bracket or whose curvature is not finite and positive
    becomes a bisection, which bounds the loop.  Stops once a step is at
    most sqrt(eps) * w; returns that point and the number of slope
    evaluations.
    """
    rel = math.sqrt(np.finfo(float).eps)
    slope, evaluations = _profile_slope(w, t, yc), 1
    while True:
        if slope > 0.0:
            hi = w
        elif slope < 0.0:
            lo = w
        new = w - slope / curvature if 0.0 < curvature < math.inf else math.nan
        if not lo < new < hi:
            new = 0.5 * (lo + hi)
        if abs(new - w) <= rel * w:
            return new, evaluations
        new_slope, evaluations = _profile_slope(new, t, yc), evaluations + 1
        curvature = (new_slope - slope) / (new - w)
        w, slope = new, new_slope


def fit_sinusoid(x: np.ndarray, ys: np.ndarray) -> FitBatch:
    """Least squares fit of a*sin(b*x + c) + d to each row of ``ys``.

    The search runs in span units, on t = (x - min) / span and w = b * span.
    Each fit is global over w from 2*pi / 20 up to 8 periods over the span
    and below Nyquist, (m - 1) / 2 periods on m distinct abscissas: the
    scan, set up once per batch, ranks the grid frequencies, and a secant on
    the profile's slope refines the best one between its neighbours
    (``iterations`` counts its slope evaluations).  An optimum on an edge of
    that domain (at the low end, the b -> 0 limit where the family
    degenerates to a quadratic) is the exact linear fit there, flagged by
    stop reason BOUNDARY; on m <= 3 the profile is flat and no edge is
    flagged.  Data faster than the domain's upper end are not
    always flagged: a whole number of periods above 8 fits a side lobe
    inside the domain, with stop reason TOLERANCE.  The parameters come out
    canonical from the exact solve in x: b > 0, a >= 0 and c in (-pi, pi].
    A span so short that b = w / span overflows, and data so large that the
    fit overflows, raise ValueError.
    """
    model = ModelSpec.sinusoid()
    if x.size < model.n_params:
        raise ValueError(f"sinusoid fits need at least {model.n_params} points, got {x.size}")
    params, sse = np.empty((len(ys), model.n_params)), np.empty(len(ys))
    iterations, reasons = np.empty(len(ys), dtype=int), [TOLERANCE] * len(ys)
    try:
        with np.errstate(over="raise"):
            span = float(x.max() - x.min())
            if span <= 0.0:
                raise ValueError("abscissas must span a positive interval")
            t = (x - x.min()) / span
            levels = np.unique(t).size
            ws = _frequency_grid(levels)
            # Python floats overflow to inf silently.
            if not math.isfinite(float(ws[-1]) / span):
                raise ValueError(f"abscissa span {span!r} is too short: the frequencies overflow")
            ycs = [y - y.mean() for y in ys]
            for i, profile in enumerate(_grid_profiles(t, ycs)):
                k = int(np.argmin(profile))
                lo, hi = ws[max(k - 1, 0)], ws[min(k + 1, ws.size - 1)]
                # The first curvature is the scan's second difference; an end of the grid has none.
                curvature = math.nan
                if 0 < k < ws.size - 1:
                    left, mid, right = profile[k - 1:k + 2].tolist()
                    curvature = (left - 2.0 * mid + right) / float(ws[0]) ** 2
                w, iterations[i] = _secant_minimize(float(ws[k]), float(lo), float(hi), curvature,
                                                    t, ycs[i])
                params[i], sse[i] = _linear_at(w / span, x, ys[i])
                # A bracket that touches an end of the domain keeps the end if it fits no worse,
                # unless the profile is flat: on at most three levels any frequency fits as well.
                for edge in (lo, hi) if levels > 3 else ():
                    if edge in (ws[0], ws[-1]):
                        edge_row, edge_sse = _linear_at(edge / span, x, ys[i])
                        if edge_sse <= sse[i]:
                            params[i], sse[i], reasons[i] = edge_row, edge_sse, BOUNDARY
                            break
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
