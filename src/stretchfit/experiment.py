"""Synthetic benchmark protocol: noisy data generation, error metrics,
single trials, and the seeded Monte Carlo comparison of plain versus
stretched least squares.

Each trial owns a private random stream derived from (base seed, trial
index), so a report is bit-identical regardless of execution order or
thread count, and extending the repetition count preserves the existing
trial prefix.
"""

from __future__ import annotations

from concurrent.futures import ThreadPoolExecutor
from dataclasses import dataclass, field
from typing import Callable

import numpy as np

from .distribution import (
    SamplerFailureError,
    StretchedGaussian,
    sample_rejection,
    standardize,
)
from .lsq import (
    Dataset,
    FitResult,
    ModelSpec,
    SingularFitError,
    fit,
    predict,
)
from .stretched import StageFailure, StretchedFit, stretched_fit

# Error families that mark a trial failed (excluded from win rates) rather
# than aborting the whole Monte Carlo run.  A fit that did not converge is
# not among them: it is kept and flagged by its stop reason.
TRIAL_FAILURE_TYPES = (
    SingularFitError,
    StageFailure,
    SamplerFailureError,
)

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
        if self.eta < 0.0:
            raise ValueError(f"eta must be nonnegative, got {self.eta}")
        if not (0.0 < self.beta <= 1.0):
            raise ValueError(f"beta must lie in (0, 1], got {self.beta}")
        lo, hi = self.x_domain
        if lo < 0.0 or hi <= lo:
            raise ValueError(f"x_domain must be a nonnegative interval, got {self.x_domain}")
        if not (0 <= int(self.seed) < 2**64):
            raise ValueError("seed must fit an unsigned 64-bit integer")

    def truth_function(self) -> Callable[[np.ndarray], np.ndarray]:
        return lambda x: predict(self.truth_model, self.truth_params, x)


@dataclass(frozen=True)
class TrialReport:
    """Errors and fits of one trial; ``seed`` is the (base, index) pair used."""

    lsm_error1: float
    lsm_error2: float
    slsm_error1: float
    slsm_error2: float
    lsm_fit: FitResult
    slsm_fit: StretchedFit
    seed: tuple[int, int]

    def errors(self) -> tuple[float, float, float, float]:
        return (self.lsm_error1, self.lsm_error2, self.slsm_error1, self.slsm_error2)


@dataclass(frozen=True)
class ExperimentReport:
    """Aggregate of a seeded Monte Carlo run.

    Win rates are exact fractions of successful trials in which the
    stretched method is strictly better on the given metric; failed trials
    are listed and excluded from the denominators.  Ties count the trials
    whose two errors agree to TIE_RTOL; they are reported apart and do not
    change the strict win rates.
    """

    config: TrialConfig
    repetitions: int
    trials: tuple[TrialReport, ...]
    failures: tuple[tuple[int, str], ...]
    win_rate_error1: float
    win_rate_error2: float
    ties_error1: int
    ties_error2: int
    medians: dict[str, float] = field(default_factory=dict)
    iqrs: dict[str, float] = field(default_factory=dict)


def trial_rng(base_seed: int, trial_index: int) -> np.random.Generator:
    """Private stream of one trial, stable under any execution order."""
    return np.random.default_rng([int(base_seed), int(trial_index)])


def make_noisy_dataset(cfg: TrialConfig, rng: np.random.Generator) -> Dataset:
    """Equally spaced abscissas plus standardized stretched Gaussian noise * eta/100.

    The abscissas include both domain endpoints.  With eta = 0 the
    ordinates are exact and no noise is drawn.
    """
    x = np.linspace(*cfg.x_domain, cfg.n)
    y = predict(cfg.truth_model, cfg.truth_params, x)
    if cfg.eta > 0.0:
        raw = standardize(sample_rejection(cfg.noise_law, rng, cfg.n))
        y = y + raw * (cfg.eta / 100.0)
    return Dataset(x, y)


def error1(fitted: Callable, truth: Callable, x) -> float:
    """Maximum absolute pointwise gap between the two curves on the grid."""
    xv = np.asarray(x, dtype=float)
    if xv.size == 0:
        raise ValueError("error metrics need at least one evaluation point")
    return float(np.max(np.abs(np.asarray(fitted(xv)) - np.asarray(truth(xv)))))


def error2(fitted: Callable, truth: Callable, x) -> float:
    """Root mean square pointwise gap between the two curves on the grid."""
    xv = np.asarray(x, dtype=float)
    if xv.size == 0:
        raise ValueError("error metrics need at least one evaluation point")
    diff = np.asarray(fitted(xv)) - np.asarray(truth(xv))
    return float(np.sqrt(np.mean(diff**2)))


def run_trial(cfg: TrialConfig, trial_index: int = 0) -> TrialReport:
    """One trial: build data, fit both methods, score against the truth."""
    rng = trial_rng(cfg.seed, trial_index)
    data = make_noisy_dataset(cfg, rng)
    truth = cfg.truth_function()

    lsm = fit(cfg.truth_model, data)
    slsm = stretched_fit(cfg.truth_model, data, cfg.beta)

    return TrialReport(
        lsm_error1=error1(lsm.predict, truth, data.x),
        lsm_error2=error2(lsm.predict, truth, data.x),
        slsm_error1=error1(slsm.predict, truth, data.x),
        slsm_error2=error2(slsm.predict, truth, data.x),
        lsm_fit=lsm,
        slsm_fit=slsm,
        seed=(int(cfg.seed), int(trial_index)),
    )


def _column_stats(reports: list[TrialReport]) -> tuple[dict[str, float], dict[str, float]]:
    medians: dict[str, float] = {}
    iqrs: dict[str, float] = {}
    table = np.array([r.errors() for r in reports], dtype=float)
    for j, name in enumerate(ERROR_COLUMNS):
        col = table[:, j]
        medians[name] = float(np.median(col))
        q25, q75 = np.percentile(col, [25.0, 75.0], method="linear")
        iqrs[name] = float(q75 - q25)
    return medians, iqrs


def _tie(a: float, b: float) -> bool:
    return abs(a - b) <= TIE_RTOL * max(a, b)


def run_monte_carlo(cfg: TrialConfig, repetitions: int, threads: int = 1) -> ExperimentReport:
    """Repeat the trial with derived per-trial seeds and aggregate.

    The report is identical for any thread count because trial i always
    draws from the stream (cfg.seed, i) and results are reduced in index
    order.
    """
    if repetitions < 1:
        raise ValueError("repetitions must be at least 1")
    if threads < 1:
        raise ValueError(f"threads must be at least 1, got {threads}")

    def one(i: int):
        try:
            return run_trial(cfg, i)
        except TRIAL_FAILURE_TYPES as exc:
            return (i, f"{type(exc).__name__}: {exc}")

    if threads > 1:
        with ThreadPoolExecutor(max_workers=threads) as pool:
            outcomes = list(pool.map(one, range(repetitions)))
    else:
        outcomes = [one(i) for i in range(repetitions)]

    trials = [o for o in outcomes if isinstance(o, TrialReport)]
    failures = tuple(o for o in outcomes if not isinstance(o, TrialReport))

    if trials:
        wins1 = sum(1 for t in trials if t.slsm_error1 < t.lsm_error1)
        wins2 = sum(1 for t in trials if t.slsm_error2 < t.lsm_error2)
        win_rate_error1 = wins1 / len(trials)
        win_rate_error2 = wins2 / len(trials)
        medians, iqrs = _column_stats(trials)
    else:
        win_rate_error1 = win_rate_error2 = float("nan")
        medians, iqrs = {}, {}
    ties_error1 = sum(1 for t in trials if _tie(t.lsm_error1, t.slsm_error1))
    ties_error2 = sum(1 for t in trials if _tie(t.lsm_error2, t.slsm_error2))

    return ExperimentReport(
        config=cfg,
        repetitions=repetitions,
        trials=tuple(trials),
        failures=failures,
        win_rate_error1=win_rate_error1,
        win_rate_error2=win_rate_error2,
        ties_error1=ties_error1,
        ties_error2=ties_error2,
        medians=medians,
        iqrs=iqrs,
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
