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
    """Aggregate of a seeded Monte Carlo run, with its per-trial columns.

    Row k of the noisy ``ordinates``, of ``errors`` (columns in ERROR_COLUMNS
    order) and of the fit batches belongs to trial k.  Win rates are exact
    fractions of the trials in which the stretched method is strictly
    better on the given metric.  Ties count the trials whose two errors
    agree to TIE_RTOL; they are reported apart and do not change the strict
    win rates.
    """

    config: TrialConfig
    ordinates: np.ndarray
    errors: np.ndarray
    lsm: FitBatch
    transition: FitBatch
    final: FitBatch
    win_rate_error1: float
    win_rate_error2: float
    ties_error1: int
    ties_error2: int
    medians: dict[str, float]
    iqrs: dict[str, float]

    def column(self, name: str) -> np.ndarray:
        """The errors named ``name`` (one of ERROR_COLUMNS), one per trial."""
        return self.errors[:, ERROR_COLUMNS.index(name)]

    @property
    def slsm_converged(self) -> np.ndarray:
        """True for the trials whose two stretched stages both converged."""
        return self.transition.converged & self.final.converged


def trial_rng(base_seed: int, trial_index: int) -> np.random.Generator:
    """Private stream of one trial, stable under any execution order.

    This is the one-stream reference, ``default_rng([base_seed, trial_index])``;
    the Monte Carlo builds the same generators with ``trial_rngs``.
    """
    return np.random.default_rng([int(base_seed), int(trial_index)])


# numpy's SeedSequence hash (O'Neill's seed_seq on a 4-word pool), which
# trial_rngs runs on uint32 arrays with one column per trial.
_POOL_SIZE = 4
_INIT_A, _MULT_A = 0x43B0D7E5, 0x931E8875
_INIT_B, _MULT_B = 0x8B51F9DD, 0x58F38DED
_MIX_MULT_L, _MIX_MULT_R = np.uint32(0xCA01F9DD), np.uint32(0x4973F715)
_XSHIFT = np.uint32(16)


def _hash_constants(init: int, mult: int, steps: int) -> np.ndarray:
    """init * mult**k mod 2**32 for k = 0, ..., steps, as a column.

    Hash step k xors with constant k and multiplies by constant k + 1.
    """
    consts = [init]
    for _ in range(steps):
        consts.append(consts[-1] * mult & 0xFFFFFFFF)
    return np.array(consts, np.uint32)[:, None]


def _pool_steps(consts: np.ndarray, src: int) -> tuple[np.ndarray, np.ndarray]:
    """Constants of the steps that hash pool word ``src`` into each other word.

    These are steps 4 + 3 src, 4 + 3 src + 1 and 4 + 3 src + 2, in the order
    of the other words; word ``src`` gets a placeholder, as it is not mixed.
    """
    steps = [_POOL_SIZE + (_POOL_SIZE - 1) * src + j for j in range(_POOL_SIZE - 1)]
    steps.insert(src, steps[0])
    return consts[steps], consts[[k + 1 for k in steps]]


_HASH_A = _hash_constants(_INIT_A, _MULT_A, _POOL_SIZE**2)
_HASH_B = _hash_constants(_INIT_B, _MULT_B, 2 * _POOL_SIZE)
_POOL_STEPS = [_pool_steps(_HASH_A, src) for src in range(_POOL_SIZE)]


def _hashmix(value: np.ndarray, xor: np.ndarray, mult: np.ndarray) -> np.ndarray:
    value = (value ^ xor) * mult
    return value ^ value >> _XSHIFT


def _seed_states(base_seed: int, count: int) -> np.ndarray:
    """Row i is ``SeedSequence([base_seed, i]).generate_state(4, np.uint64)``, for i < count."""
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
    for src, (xor, mult) in enumerate(_POOL_STEPS):
        mixed = pool * _MIX_MULT_L - _hashmix(pool[src], xor, mult) * _MIX_MULT_R
        mixed ^= mixed >> _XSHIFT
        mixed[src] = pool[src]
        pool = mixed
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


def error1(fitted, truth):
    """Maximum absolute pointwise gap between fitted and true values on a grid.

    ``fitted`` holds one row of values per fit, or one fit's values; each
    row gives one error.
    """
    truth = np.asarray(truth, dtype=float)
    if truth.size == 0:
        raise ValueError("error metrics need at least one evaluation point")
    return np.max(np.abs(np.asarray(fitted) - truth), axis=-1)


def error2(fitted, truth):
    """Root mean square pointwise gap between fitted and true values on a grid.

    ``fitted`` holds one row of values per fit, or one fit's values; each
    row gives one error.
    """
    truth = np.asarray(truth, dtype=float)
    if truth.size == 0:
        raise ValueError("error metrics need at least one evaluation point")
    diff = np.asarray(fitted) - truth
    return np.sqrt(np.mean(diff**2, axis=-1))


def run_monte_carlo(cfg: TrialConfig, repetitions: int) -> ExperimentReport:
    """Repeat the trial with derived per-trial seeds and aggregate.

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

    plain, stretched = errors[:, :2], errors[:, 2:]
    win_rates = [w / repetitions for w in np.count_nonzero(stretched < plain, axis=0).tolist()]
    tied = np.abs(plain - stretched) <= TIE_RTOL * np.maximum(plain, stretched)
    ties = np.count_nonzero(tied, axis=0).tolist()
    q25, q75 = np.percentile(errors, [25.0, 75.0], axis=0)

    return ExperimentReport(
        config=cfg,
        ordinates=ys,
        errors=errors,
        lsm=lsm,
        transition=transition,
        final=final,
        win_rate_error1=win_rates[0],
        win_rate_error2=win_rates[1],
        ties_error1=ties[0],
        ties_error2=ties[1],
        medians=dict(zip(ERROR_COLUMNS, np.median(errors, axis=0).tolist())),
        iqrs=dict(zip(ERROR_COLUMNS, (q75 - q25).tolist())),
    )


# ---------------------------------------------------------------------------
# The 8-configuration benchmark grid
# ---------------------------------------------------------------------------

POLY_TRUTH_PARAMS = (1.0, 1.0, 2.0)       # x**2 + x + 2
SIN_TRUTH_PARAMS = (1.0, 1.0, 0.0, 0.0)   # sin(x)

GRID_BETAS = (0.4, 0.8)
GRID_ETAS = (30.0, 50.0)
GRID_FAMILIES = ("poly", "sin")


def config_token(family: str, beta: float, eta: float) -> str:
    return f"{family}:b{beta:g}:e{eta:g}"


def grid_config(family: str, beta: float, eta: float, seed: int,
                n: int = 200, x_domain: tuple[float, float] = (0.0, 1.0)) -> TrialConfig:
    """One benchmark configuration with the default noise law (c = 1)."""
    if family == "poly":
        truth_model = ModelSpec.polynomial(2)
        truth_params = POLY_TRUTH_PARAMS
    elif family == "sin":
        truth_model = ModelSpec.sinusoid()
        truth_params = SIN_TRUTH_PARAMS
    else:
        raise ValueError(f"unknown benchmark family {family!r}")
    law = StretchedGaussian(alpha=1.0, beta=beta, diffusivity=0.25, time=1.0)
    return TrialConfig(
        truth_model=truth_model,
        truth_params=np.asarray(truth_params),
        noise_law=law,
        eta=eta,
        beta=beta,
        seed=seed,
        n=n,
        x_domain=x_domain,
    )


def benchmark_grid(base_seed: int) -> list[tuple[str, TrialConfig]]:
    """All 8 (family, beta, eta) combinations; config k gets seed base + k."""
    out = []
    index = 0
    for family in GRID_FAMILIES:
        for eta in GRID_ETAS:
            for beta in GRID_BETAS:
                cfg = grid_config(family, beta, eta, seed=base_seed + index)
                out.append((config_token(family, beta, eta), cfg))
                index += 1
    return out
