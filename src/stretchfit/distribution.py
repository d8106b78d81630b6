"""Stretched Gaussian law: density, moments, and random variate generation.

The law has density proportional to exp(-|x|^(2*beta) / c) with scale
c = 4 * diffusivity * time**alpha.  At beta = 1 it is a zero-mean Gaussian
of variance c/2; at beta = 0.5 it is a Laplace law of scale c.

Sampling exploits that |X|^(2*beta) / c is Gamma-distributed with shape
1/(2*beta) and unit scale, so a draw is X = S * (c * G)**(1/(2*beta)) with
S a random sign.  Two routes to G are provided: ``sample_exact`` delegates
to numpy's gamma generator and draws the Monte Carlo's noise, while
``sample_rejection`` uses a hand-rolled squeeze-type acceptance-rejection
scheme (with shape boosting for shapes below one) so the two can be tested
against each other.  Both take their signs from the same raw words.
"""

from __future__ import annotations

import math
from collections.abc import Sequence
from contextlib import contextmanager
from dataclasses import dataclass

import numpy as np

# Hard budget of proposal rounds per sampler call; exceeding it signals a
# broken envelope rather than an unlucky stream.
REJECTION_PROPOSAL_CAP = 10_000


class SamplerFailureError(RuntimeError):
    """Acceptance-rejection exceeded its budget of proposal rounds."""


class DegenerateScaleError(ValueError):
    """Standardization is undefined for constant input."""


@dataclass(frozen=True)
class StretchedGaussian:
    """Parameter set of the stretched Gaussian law.

    Parameters
    ----------
    alpha : float
        Time-stretch exponent in (0, 1].
    beta : float
        Space-stretch exponent in (0, 1]; controls the tail weight.
    diffusivity : float
        Positive diffusion coefficient.
    time : float
        Positive evaluation time.
    """

    alpha: float
    beta: float
    diffusivity: float
    time: float

    def __post_init__(self) -> None:
        if not (0.0 < self.alpha <= 1.0) or not math.isfinite(self.alpha):
            raise ValueError(f"alpha must lie in (0, 1], got {self.alpha}")
        if not (0.0 < self.beta <= 1.0) or not math.isfinite(self.beta):
            raise ValueError(f"beta must lie in (0, 1], got {self.beta}")
        if not (self.diffusivity > 0.0) or not math.isfinite(self.diffusivity):
            raise ValueError(f"diffusivity must be positive, got {self.diffusivity}")
        if not (self.time > 0.0) or not math.isfinite(self.time):
            raise ValueError(f"time must be positive, got {self.time}")
        if not 0.0 < self.scale < math.inf:
            raise ValueError(f"scale 4 * D * t**alpha must lie in (0, inf), got {self.scale}")
        if not math.isfinite(self.gamma_shape):
            raise ValueError(f"gamma_shape 1/(2*beta) must be finite, got {self.gamma_shape}")

    @property
    def scale(self) -> float:
        """Scale c = 4 * diffusivity * time**alpha (always positive)."""
        return 4.0 * self.diffusivity * self.time**self.alpha

    @property
    def gamma_shape(self) -> float:
        """Shape 1/(2*beta) of the Gamma law of |X|**(2*beta) / c."""
        return 1.0 / (2.0 * self.beta)


@contextmanager
def _double_range(what: str):
    """Raise ValueError naming ``what`` where the block overflows a double."""
    try:
        with np.errstate(over="raise"):
            yield
    except (FloatingPointError, OverflowError) as exc:
        raise ValueError(f"{what} overflows a double ({exc})") from exc


def _log_normalization(law: StretchedGaussian) -> float:
    a = law.gamma_shape
    return a * math.log(law.scale) + math.lgamma(a) - math.log(law.beta)


def normalization_constant(law: StretchedGaussian) -> float:
    """Integral of exp(-|x|^(2*beta)/c) over the real line.

    Z = c**(1/(2*beta)) * Gamma(1/(2*beta)) / beta, the exponential of its
    logarithm.  At beta = 1 this is sqrt(pi * c), the familiar Gaussian prefactor.
    """
    with _double_range("the normalization constant"):
        return math.exp(_log_normalization(law))


def pdf(law: StretchedGaussian, x):
    """Normalized density exp(-|x|**(2*beta)/c - log Z) at ``x`` (scalar or array).

    Raises ValueError for non-finite evaluation points and where the density overflows.
    """
    xv = np.asarray(x, dtype=float)
    if not np.all(np.isfinite(xv)):
        raise ValueError("pdf evaluation point must be finite")
    with np.errstate(over="ignore"):  # a kernel of inf is a density of 0
        kernel = np.abs(xv) ** (2.0 * law.beta) / law.scale
    with _double_range("the density"):
        out = np.exp(-kernel - _log_normalization(law))
    return out if xv.shape else float(out)


def absolute_moment(law: StretchedGaussian, k: int) -> float:
    """E|X|**k = c**(k/(2*beta)) * Gamma((k+1)/(2*beta)) / Gamma(1/(2*beta)).

    ``k = 0`` returns 1 (total mass).  One exponent of log(c) and log-gamma
    keeps it finite for large moment orders.
    """
    if not 0 <= k < math.inf:
        raise ValueError(f"moment order must be finite and nonnegative, got {k}")
    two_beta = 2.0 * law.beta
    with _double_range(f"absolute moment {k}"):
        return math.exp(k / two_beta * math.log(law.scale) + math.lgamma((k + 1) / two_beta)
                        - math.lgamma(1.0 / two_beta))


def _sign_words(rng: np.random.Generator, n: int) -> np.ndarray:
    """The raw words whose bits sign ``n`` variates.

    Bit 31 and then bit 63 of each word are the bits ``rng.integers(0, 2, n)``
    returns, read from the raw stream, which numpy keeps stable across
    versions.  That split needs 64-bit raw words, which MT19937 lacks.
    """
    if isinstance(rng.bit_generator, np.random.MT19937):
        raise TypeError("the samplers need a 64-bit bit generator, not MT19937")
    return rng.bit_generator.random_raw((n + 1) // 2)


def _attach_sign_and_scale(law: StretchedGaussian, gamma_draws: np.ndarray,
                           words: np.ndarray) -> np.ndarray:
    """Variates of the law from Gamma draws, signed by their rows' ``_sign_words``.

    A beta so small that the variates overflow raises ValueError.
    """
    try:
        with np.errstate(over="raise"):
            x = (law.scale * gamma_draws) ** (1.0 / (2.0 * law.beta))
    except FloatingPointError as exc:
        raise ValueError(f"variates overflow ({exc}): beta = {law.beta!r} is too small") from exc
    # As little-endian int32 halves, word j's bit 31 is the sign bit of half
    # 2j and its bit 63 that of half 2j + 1; ~halves is negative where the bit is 0.
    halves = np.asarray(words, "<u8").view("<i4")[..., :x.shape[-1]]
    return np.copysign(x, ~halves, out=x)


def sample_exact(law: StretchedGaussian,
                 rng: np.random.Generator | Sequence[np.random.Generator], n: int) -> np.ndarray:
    """Draw ``n`` variates via the Gamma transform, by numpy's gamma generator.

    ``rng`` is a generator, or a sequence of generators for a batch: then
    each draws one row of the ``(len(rng), n)`` result, with the same bits
    it gives alone.
    """
    if n < 1:
        raise ValueError(f"sample count must be at least 1, got {n}")
    single = isinstance(rng, np.random.Generator)
    rngs = [rng] if single else list(rng)
    if not rngs:
        raise ValueError("a batch needs at least one generator")
    g = np.empty((len(rngs), n))
    words = np.empty((len(rngs), (n + 1) // 2), np.uint64)
    # Each generator draws its Gamma row, then its sign words.
    for r, g_row, words_row in zip(rngs, g, words):
        r.standard_gamma(law.gamma_shape, out=g_row)
        words_row[:] = _sign_words(r, n)
    samples = _attach_sign_and_scale(law, g, words)
    return samples[0] if single else samples


@dataclass(frozen=True)
class RejectionStats:
    """Bookkeeping of one acceptance-rejection run."""

    proposals: int
    accepted: int

    @property
    def acceptance_rate(self) -> float:
        return self.accepted / self.proposals if self.proposals else float("nan")


def _gamma_rejection(shape: float, rng: np.random.Generator, n: int) -> tuple[np.ndarray, int]:
    """Gamma(shape, 1) draws for shape >= 1 by squeeze-type rejection.

    Proposes z ~ N(0,1), forms v = (1 + z/sqrt(9d))**3 with d = shape - 1/3,
    and accepts d*v when u < 1 - 0.0331 z**4 (fast squeeze) or when
    log u < z**2/2 + d (1 - v + log v).  Each round draws as many normals,
    then uniforms, as values are missing.  Returns the draws plus the
    proposal count.
    """
    d = shape - 1.0 / 3.0
    c = 1.0 / math.sqrt(9.0 * d)
    out = np.empty(n)
    filled = proposals = 0
    for _ in range(REJECTION_PROPOSAL_CAP):
        wanted = n - filled
        z = rng.standard_normal(wanted)
        u = rng.random(wanted)
        v = (1.0 + c * z) ** 3
        positive = v > 0.0
        # z**4 as a square of squares: numpy's fast pow covers positive bases only.
        z2 = z * z
        accept = positive & (u < 1.0 - 0.0331 * (z2 * z2))
        slow = positive & ~accept
        if np.any(slow):
            vs = v[slow]
            accept[slow] = np.log(u[slow]) < 0.5 * z2[slow] + d * (1.0 - vs + np.log(vs))
        kept = d * v[accept]
        out[filled:filled + kept.size] = kept
        filled += kept.size
        proposals += wanted
        if filled == n:
            return out, proposals
    raise SamplerFailureError(
        f"no acceptance after {REJECTION_PROPOSAL_CAP} proposal rounds "
        f"(shape={shape}); envelope constants are broken"
    )


def sample_rejection(law: StretchedGaussian, rng: np.random.Generator, n: int,
                     return_stats: bool = False):
    """Draw ``n`` variates via acceptance-rejection at the Gamma level.

    For shapes below one the boosting identity G_a = G_(a+1) * U**(1/a)
    lifts the rejection to shape a + 1, which keeps a single envelope valid
    for every beta in (0, 1].  With ``return_stats`` the proposal ledger is
    returned alongside the draws.
    """
    if n < 1:
        raise ValueError(f"sample count must be at least 1, got {n}")
    a = law.gamma_shape
    if a >= 1.0:
        g, proposals = _gamma_rejection(a, rng, n)
    else:
        g, proposals = _gamma_rejection(a + 1.0, rng, n)
        g = g * rng.random(n) ** (1.0 / a)
    samples = _attach_sign_and_scale(law, g, _sign_words(rng, n))
    if return_stats:
        return samples, RejectionStats(proposals=proposals, accepted=n)
    return samples


def standardize(samples) -> np.ndarray:
    """Center to sample mean 0 and scale to sample standard deviation 1.

    A 2-D input is standardized row by row.  The (n-1)-divisor convention
    is used.  A constant row has no defined scale and raises
    DegenerateScaleError; samples so large that the computation overflows
    raise ValueError.
    """
    v = np.asarray(samples, dtype=float)
    if v.ndim not in (1, 2) or v.shape[-1] < 2:
        raise ValueError("standardize requires vectors of at least 2 samples")
    try:
        with np.errstate(over="raise"):
            sd = v.std(axis=-1, ddof=1, keepdims=True)
            centered = v - v.mean(axis=-1, keepdims=True)
    except FloatingPointError as exc:
        raise ValueError(f"standardization overflows ({exc}): the samples are too large") from exc
    if not np.all(sd > 0.0):
        raise DegenerateScaleError("cannot standardize a constant sample")
    return centered / sd
