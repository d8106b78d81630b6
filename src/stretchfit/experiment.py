"""Synthetic benchmark protocol: noisy data generation, error metrics, and
the seeded Monte Carlo comparison of plain versus stretched least squares.

Each trial owns a private random stream derived from (base seed, trial
index), so a report is bit-identical on every rerun, and extending the
repetition count preserves the existing trial prefix.  The trials of a run
share their abscissas, so both methods fit and score them as one batch,
whose rows are computed independently of the batch size, and the report
keeps the batch's columns: trial k of a run is row k of each.
"""

from __future__ import annotations

import functools
import itertools
import math
from dataclasses import dataclass

import numpy as np

from .distribution import StretchedGaussian, sample_exact, standardize
from .lsq import FitBatch, ModelSpec, fit_batch, predict
from .stretched import stretched_fit_batch

ERROR_COLUMNS = ("lsm_error1", "lsm_error2", "slsm_error1", "slsm_error2")

# Two errors of one trial tie when they differ by at most this share of the
# larger one: at beta = 1 the methods coincide and differ only by rounding.
TIE_RTOL = 1e-9


@dataclass(frozen=True)
class TrialConfig:
    """Everything one synthetic trial needs, seed included."""

    truth_model: ModelSpec
    truth_params: np.ndarray
    noise_law: StretchedGaussian
    eta: float
    beta: float
    seed: int
    n: int = 200
    x_domain: tuple[float, float] = (0.0, 1.0)

    def __post_init__(self) -> None:
        params = np.asarray(self.truth_params, dtype=float)
        if params.size != self.truth_model.n_params:
            raise ValueError("truth parameter count does not match the truth model")
        object.__setattr__(self, "truth_params", params)
        if self.n < self.truth_model.n_params:
            raise ValueError(
                f"n = {self.n} is below the model's parameter count "
                f"{self.truth_model.n_params}"
            )
        most = np.iinfo(np.intp).max // 8
        if self.n > most:
            raise ValueError(f"n = {self.n} is above {most}, the most doubles one array holds")
        if not (0.0 <= self.eta < math.inf):
            raise ValueError(f"eta must be finite and nonnegative, got {self.eta}")
        if not (0.0 < self.beta <= 1.0):
            raise ValueError(f"beta must lie in (0, 1], got {self.beta}")
        lo, hi = self.x_domain
        if not (0.0 <= lo < hi < math.inf):
            raise ValueError(
                f"x_domain must be a finite nonnegative interval, got {self.x_domain}")
        if not (0 <= int(self.seed) < 2**64):
            raise ValueError("seed must fit an unsigned 64-bit integer")


@dataclass(frozen=True)
class ExperimentReport:
    """A seeded Monte Carlo run: its per-trial columns and their summary.

    Row k of the noisy ``ordinates``, of ``errors`` (columns in ERROR_COLUMNS
    order) and of the fit batches belongs to trial k.
    """

    config: TrialConfig
    ordinates: np.ndarray
    errors: np.ndarray
    lsm: FitBatch
    transition: FitBatch
    final: FitBatch

    def column(self, name: str) -> np.ndarray:
        """The errors named ``name`` (one of ERROR_COLUMNS), one per trial."""
        return self.errors[:, ERROR_COLUMNS.index(name)]

    @property
    def slsm_converged(self) -> np.ndarray:
        """True for the trials whose two stretched stages both converged."""
        return self.transition.converged & self.final.converged

    @functools.cached_property
    def summary(self) -> dict:
        """The aggregates of ``errors``, keyed as the reports write them.

        Win rates are exact fractions of the trials in which the stretched
        method is strictly better on the given metric.  Ties count the
        trials whose two errors agree to TIE_RTOL; they are reported apart
        and do not change the strict win rates.
        """
        repetitions = len(self.errors)
        plain, stretched = self.errors[:, :2], self.errors[:, 2:]
        wins = np.count_nonzero(stretched < plain, axis=0).tolist()
        tied = np.abs(plain - stretched) <= TIE_RTOL * np.maximum(plain, stretched)
        ties = np.count_nonzero(tied, axis=0).tolist()
        q25, q75 = np.percentile(self.errors, [25.0, 75.0], axis=0)
        return {
            "repetitions": repetitions,
            # No trial is ever excluded: a fit failure fails the whole run.
            "excluded": 0,
            "win_rate_error1": wins[0] / repetitions,
            "win_rate_error2": wins[1] / repetitions,
            "ties_error1": ties[0],
            "ties_error2": ties[1],
            "medians": dict(zip(ERROR_COLUMNS, np.median(self.errors, axis=0).tolist())),
            "iqrs": dict(zip(ERROR_COLUMNS, (q75 - q25).tolist())),
        }


def trial_rng(base_seed: int, trial_index: int) -> np.random.Generator:
    """Private stream of one trial, stable under any execution order.

    This is the one-stream reference, ``default_rng([base_seed, trial_index])``;
    the Monte Carlo builds the same generators with ``trial_rngs``.
    """
    return np.random.default_rng([int(base_seed), int(trial_index)])


# numpy's SeedSequence hash (O'Neill's seed_seq on a 4-word pool), which
# trial_rngs runs on uint32 arrays with one column per trial.  Hash step k
# xors with constant k of its column and multiplies by constant k + 1:
# INIT * MULT**k mod 2**32, for INIT_A/MULT_A and INIT_B/MULT_B.
_POOL_SIZE = 4
_HASH_A = np.cumprod([0x43B0D7E5] + [0x931E8875] * _POOL_SIZE**2, dtype=np.uint32)[:, None]
_HASH_B = np.cumprod([0x8B51F9DD] + [0x58F38DED] * 2 * _POOL_SIZE, dtype=np.uint32)[:, None]
_MIX_MULT_L, _MIX_MULT_R = np.uint32(0xCA01F9DD), np.uint32(0x4973F715)
_XSHIFT = np.uint32(16)


def _hashmix(value: np.ndarray, xor: np.ndarray, mult: np.ndarray) -> np.ndarray:
    value = (value ^ xor) * mult
    return value ^ value >> _XSHIFT


def _seed_states(base_seed: int, count: int) -> np.ndarray:
    """Row i is ``SeedSequence([base_seed, i]).generate_state(4, np.uint64)``, for i < count.

    The steps mirror ``SeedSequence.mix_entropy`` and ``generate_state`` in
    numpy's ``numpy/random/bit_generator.pyx``, one column per trial.
    """
    seed = int(base_seed)
    index = np.arange(count, dtype=np.uint64)
    # numpy splits the seed into 32-bit words, low first: one word below
    # 2**32, else two.  The index goes in as a low and a high word, which
    # equals numpy's one word because the pool pads with the hash of 0.
    seed_words = [seed & 0xFFFFFFFF] + ([seed >> 32] if seed >> 32 else [])
    entropy = np.zeros((_POOL_SIZE, count), np.uint32)
    entropy[:len(seed_words)] = np.array(seed_words, np.uint32)[:, None]
    entropy[len(seed_words)] = index
    entropy[len(seed_words) + 1] = index >> np.uint64(32)

    pool = _hashmix(entropy, _HASH_A[:_POOL_SIZE], _HASH_A[1:_POOL_SIZE + 1])
    # Hash steps 4 + 3 src, ..., 6 + 3 src mix word src into the other words.
    for src in range(_POOL_SIZE):
        dst = [i for i in range(_POOL_SIZE) if i != src]
        k = _POOL_SIZE + (_POOL_SIZE - 1) * src
        mixed = pool[dst] * _MIX_MULT_L - _hashmix(
            pool[src], _HASH_A[k:k + 3], _HASH_A[k + 1:k + 4]) * _MIX_MULT_R
        pool[dst] = mixed ^ mixed >> _XSHIFT
    # generate_state(4, np.uint64): eight words cycled from the pool, paired
    # into little-endian uint64s.
    state = _hashmix(np.concatenate((pool, pool)), _HASH_B[:-1], _HASH_B[1:])
    return np.ascontiguousarray(state.T, "<u4").view("<u8").astype(np.uint64, copy=False)


@functools.cache
def _preset_seed_type() -> type:
    """An ISeedSequence that answers PCG64's one ``generate_state(4, np.uint64)``
    request with words computed ahead.

    It is built on first use, since importing numpy.random adds about 6 MB
    to a process that never draws, such as ``stretchfit fit``.
    """
    class PresetSeed(np.random.bit_generator.ISeedSequence):
        def __init__(self, state: np.ndarray) -> None:
            self._state = state

        def generate_state(self, n_words, dtype=np.uint32):
            return self._state
    return PresetSeed


def trial_rngs(base_seed: int, count: int) -> list[np.random.Generator]:
    """The generators ``trial_rng(base_seed, i)`` for i < count, seeded in one pass.

    ``base_seed`` lies in [0, 2**64), as TrialConfig requires.  The seed
    words of every stream are hashed together as arrays; PCG64 then seeds
    itself from its row as it would from the SeedSequence.
    """
    preset_seed = _preset_seed_type()
    return [np.random.Generator(np.random.PCG64(preset_seed(state)))
            for state in _seed_states(base_seed, count)]


def _add_noise(cfg: TrialConfig, y: np.ndarray, rngs: list[np.random.Generator]) -> np.ndarray:
    """One row per generator: ``y`` plus the configuration's noise drawn from it.

    The rows are drawn by the Gamma transform as one batch, each with the
    bits its generator gives alone.  With eta = 0 no noise is drawn and
    every row is ``y``.
    """
    if cfg.eta > 0.0:
        return y + standardize(sample_exact(cfg.noise_law, rngs, cfg.n)) * (cfg.eta / 100.0)
    return np.tile(y, (len(rngs), 1))


def _gaps(fitted, truth) -> np.ndarray:
    """``fitted`` minus ``truth``: one row of values per fit, or one fit's values."""
    truth = np.asarray(truth, dtype=float)
    if truth.size == 0:
        raise ValueError("error metrics need at least one evaluation point")
    return np.asarray(fitted) - truth


def error1(fitted, truth):
    """Maximum absolute pointwise gap between fitted and true values on a grid, per row."""
    return np.max(np.abs(_gaps(fitted, truth)), axis=-1)


def error2(fitted, truth):
    """Root mean square pointwise gap between fitted and true values on a grid, per row."""
    return np.sqrt(np.mean(_gaps(fitted, truth)**2, axis=-1))


def run_monte_carlo(cfg: TrialConfig, repetitions: int) -> ExperimentReport:
    """Repeat the trial with derived per-trial seeds.

    Trial i always draws from the stream (cfg.seed, i).  The noise of every
    trial is drawn as one batch, and the trials are then fitted and scored
    as one batch, so a fit that fails (for polynomials the trials share one
    design matrix) raises for the whole run.  A truth that overflows on the
    domain, or an error that is not finite (the squared gaps overflow at an
    extreme eta), raises ValueError; the latter names the first such trial
    and column.
    """
    if repetitions < 1:
        raise ValueError("repetitions must be at least 1")

    x = np.linspace(*cfg.x_domain, cfg.n)
    try:
        with np.errstate(over="raise"):
            truth = predict(cfg.truth_model, cfg.truth_params, x)
    except FloatingPointError as exc:
        raise ValueError(f"the truth overflows on the domain {cfg.x_domain} ({exc})") from exc
    ys = _add_noise(cfg, truth, trial_rngs(cfg.seed, repetitions))
    lsm = fit_batch(cfg.truth_model, x, ys)
    transition, final = stretched_fit_batch(cfg.truth_model, x, ys, cfg.beta)
    # At an extreme eta the squared gaps overflow; the non-finite errors are
    # reported below.
    with np.errstate(over="ignore", invalid="ignore"):
        lsm_values, slsm_values = lsm.predict(x), final.predict(x)
        errors = np.column_stack([error1(lsm_values, truth), error2(lsm_values, truth),
                                  error1(slsm_values, truth), error2(slsm_values, truth)])

    bad = np.argwhere(~np.isfinite(errors))
    if bad.size:
        k, j = bad[0].tolist()
        raise ValueError(f"trial {k} has a non-finite {ERROR_COLUMNS[j]} ({errors[k, j]})")

    return ExperimentReport(cfg, ys, errors, lsm, transition, final)


# ---------------------------------------------------------------------------
# The 8-configuration benchmark grid
# ---------------------------------------------------------------------------

# The truth of each family: x**2 + x + 2 and sin(x).
TRUTHS = {
    "poly": (ModelSpec.polynomial(2), (1.0, 1.0, 2.0)),
    "sin": (ModelSpec.sinusoid(), (1.0, 1.0, 0.0, 0.0)),
}
GRID_BETAS = (0.4, 0.8)
GRID_ETAS = (30.0, 50.0)


def config_token(family: str, beta: float, eta: float) -> str:
    return f"{family}:b{beta:g}:e{eta:g}"


def grid_config(family: str, beta: float, eta: float, seed: int,
                n: int = 200, x_domain: tuple[float, float] = (0.0, 1.0)) -> TrialConfig:
    """One benchmark configuration with the default noise law (c = 1)."""
    if family not in TRUTHS:
        raise ValueError(f"unknown benchmark family {family!r}")
    truth_model, truth_params = TRUTHS[family]
    law = StretchedGaussian(alpha=1.0, beta=beta, diffusivity=0.25, time=1.0)
    return TrialConfig(truth_model, truth_params, law, eta=eta, beta=beta, seed=seed, n=n,
                       x_domain=x_domain)


def benchmark_grid(base_seed: int) -> list[tuple[str, TrialConfig]]:
    """All 8 (family, eta, beta) combinations, in that nesting; config k gets seed base + k."""
    grid = list(itertools.product(TRUTHS, GRID_ETAS, GRID_BETAS))
    if base_seed + len(grid) - 1 >= 2**64:
        raise ValueError(f"seed must be at most 2**64 - {len(grid)}, as configuration k "
                         "of the grid uses seed + k")
    return [(config_token(family, beta, eta), grid_config(family, beta, eta, base_seed + k))
            for k, (family, eta, beta) in enumerate(grid)]
