"""Acceptance suite.

Each test prints one `ACCEPTANCE <n> <name>: PASS|FAIL` line with the
measured quantities, then asserts.  Everything runs from fixed seeds
(base seed 0) so the whole suite is reproducible bit for bit.

Run with `pytest tests/test_acceptance.py -v -s` to see the lines.
"""

import math

import numpy as np
from scipy.integrate import quad

from stretchfit import (
    FractalAxis,
    ModelSpec,
    StretchedGaussian,
    absolute_moment,
    benchmark_grid,
    error1,
    error2,
    fit_batch,
    fractal_distance,
    hausdorff_derivative,
    hausdorff_integral,
    normalization_constant,
    pdf,
    predict,
    run_monte_carlo,
    sample_exact,
    sample_rejection,
    stretched_fit_batch,
)
from stretchfit.cli import main as cli_main
from stretchfit.lsq import POLYNOMIAL

from kstools import (
    ks_crit_one_sample,
    ks_crit_two_sample,
    ks_one_sample,
    ks_two_sample,
    numeric_cdf_grid,
)
from statstools import (
    expected_squared_rms,
    polynomial_projection,
    sign_test_pvalue,
    stretched_smoother,
    wilson_interval,
)

BASE_SEED = 0
KS_N = 100_000
BETA_GRID = (0.4, 0.5, 0.8, 1.0)
SCALE_GRID = (0.5, 1.0, 2.0)


def law_with_scale(beta: float, c: float) -> StretchedGaussian:
    return StretchedGaussian(alpha=1.0, beta=beta, diffusivity=c / 4.0, time=1.0)


def report(num: int, name: str, ok: bool, detail: str = "") -> bool:
    print(f"ACCEPTANCE {num} {name}: {'PASS' if ok else 'FAIL'}  {detail}".rstrip())
    return ok


def test_criterion_1_sampler_correctness():
    failures = []
    details = []
    for j, beta in enumerate(BETA_GRID):
        law = law_with_scale(beta, 1.0)
        grid, cdf = numeric_cdf_grid(beta, 1.0)

        exact = sample_exact(law, np.random.default_rng([BASE_SEED, 1, j]), KS_N)
        rejected = sample_rejection(law, np.random.default_rng([BASE_SEED, 2, j]), KS_N)

        d1 = ks_one_sample(exact, grid, cdf)
        if d1 >= ks_crit_one_sample(KS_N):
            failures.append(f"one-sample KS beta={beta}: {d1:.5f}")
        d2 = ks_two_sample(exact, rejected)
        if d2 >= ks_crit_two_sample(KS_N, KS_N):
            failures.append(f"two-sample KS beta={beta}: {d2:.5f}")
        details.append(f"b={beta}: D1={d1:.4f} D2={d2:.4f}")

        for k in (1, 2):
            target = absolute_moment(law, k)
            for name, sample in (("exact", exact), ("rejection", rejected)):
                got = float(np.mean(np.abs(sample) ** k))
                if abs(got - target) > 0.02 * target:
                    failures.append(
                        f"moment k={k} beta={beta} {name}: {got:.4f} vs {target:.4f}")

    ok = report(1, "sampler correctness", not failures,
                "; ".join(details) + ("; " + "; ".join(failures) if failures else ""))
    assert ok, failures


def test_criterion_2_normalization():
    failures = []
    for beta in BETA_GRID:
        for c in SCALE_GRID:
            law = law_with_scale(beta, c)
            cut = (c * math.log(1e16)) ** (1.0 / (2.0 * beta)) * 3.0
            total, _ = quad(lambda x: pdf(law, x), 0.0, cut,
                            epsabs=1e-13, epsrel=1e-13, limit=900)
            if abs(2.0 * total - 1.0) > 1e-8:
                failures.append(f"pdf mass beta={beta} c={c}: {2.0 * total!r}")
            kernel, _ = quad(lambda x: math.exp(-x ** (2.0 * beta) / c), 0.0, cut,
                             epsabs=1e-13, epsrel=1e-13, limit=900)
            z = normalization_constant(law)
            if abs(z - 2.0 * kernel) > 1e-10:
                failures.append(f"Z beta={beta} c={c}: {z!r} vs {2.0 * kernel!r}")
    # At beta = 1 the normalizer must equal the classical sqrt(4 pi D t**alpha).
    for d_coeff, t in ((0.25, 1.0), (0.7, 2.3)):
        law = StretchedGaussian(alpha=1.0, beta=1.0, diffusivity=d_coeff, time=t)
        z = normalization_constant(law)
        ref = math.sqrt(4.0 * math.pi * d_coeff * t)
        if not math.isclose(z, ref, rel_tol=1e-14):
            failures.append(f"gaussian prefactor D={d_coeff} t={t}: {z!r} vs {ref!r}")
    ok = report(2, "normalization", not failures, "; ".join(failures))
    assert ok, failures


def test_criterion_3_noiseless_recovery():
    x = np.linspace(0.0, 1.0, 200)
    quad_y = predict(ModelSpec.polynomial(2), [1, 1, 2], x)
    quad_fit = fit_batch(ModelSpec.polynomial(2), x, quad_y[None])
    poly_gap = float(np.max(np.abs(quad_fit.params[0] - np.array([1.0, 1.0, 2.0]))))

    sin_fit = fit_batch(ModelSpec.sinusoid(), x, np.sin(x)[None])
    sin_gap = float(np.max(np.abs(sin_fit.params[0] - np.array([1.0, 1.0, 0.0, 0.0]))))

    ok = report(3, "noiseless recovery", poly_gap <= 1e-8 and sin_gap <= 1e-5,
                f"poly gap {poly_gap:.2e} (tol 1e-8), sin gap {sin_gap:.2e} (tol 1e-5)")
    assert ok


def test_criterion_4_beta_one_equivalence():
    rng = np.random.default_rng([BASE_SEED, 4])
    worst = 0.0
    for _ in range(50):
        n = int(rng.integers(30, 200))
        x = np.sort(rng.uniform(0.0, 2.0, n))
        coeffs = rng.uniform(-2.0, 2.0, 3)
        y = predict(ModelSpec.polynomial(2), coeffs, x) + rng.normal(0.0, 0.4, n)
        plain = fit_batch(ModelSpec.polynomial(2), x, y[None])
        _, two_stage = stretched_fit_batch(ModelSpec.polynomial(2), x, y[None], 1.0)
        worst = max(worst, float(np.max(np.abs(two_stage.predict(x) - plain.predict(x)))))
    ok = report(4, "beta=1 equivalence", worst <= 1e-8,
                f"worst prediction gap {worst:.2e} over 50 noisy datasets (tol 1e-8)")
    assert ok


def test_criterion_5_hausdorff_identities():
    worst_deriv = 0.0
    for alpha in (0.3, 0.4, 0.5, 0.8, 1.0):
        axis = FractalAxis(alpha, 0.0)
        for point in (0.2, 0.7, 1.3, 2.5):
            got = hausdorff_derivative(lambda t, a=alpha: t**a, axis, point)
            worst_deriv = max(worst_deriv, abs(got - 1.0))

    worst_int = 0.0
    for v0 in (1.0, 3.0, -0.7):
        for alpha in (0.3, 0.5, 0.7, 1.0):
            for upper in (0.5, 1.0, 2.0):
                got = hausdorff_integral(lambda t: v0, FractalAxis(alpha, 0.0), upper)
                worst_int = max(worst_int, abs(got - v0 * upper**alpha))

    # Spot identity values of the distance operator.
    spot = (abs(fractal_distance(FractalAxis(0.5, 0.0), 4.0) - 2.0) +
            abs(fractal_distance(FractalAxis(1.0, 0.0), 3.0) - 3.0))

    ok = report(5, "fractal operator identities",
                worst_deriv <= 1e-6 and worst_int <= 1e-8 and spot == 0.0,
                f"self-derivative gap {worst_deriv:.2e} (tol 1e-6), "
                f"constant-integral gap {worst_int:.2e} (tol 1e-8)")
    assert ok


def test_criterion_6_statistical_comparison():
    """The paper's accuracy claim, in the form the method promises.

    1. Polynomial configs: the exact oracle puts the stretched method's
       expected squared RMS error strictly below plain LSM's, and the Monte
       Carlo mean of the paired gap lsm_error2**2 - slsm_error2**2 lies
       within 4 standard errors of the oracle's gap.
    2. Every config and both metrics: plain LSM is not significantly more
       accurate (one-sided exact sign test over trials with a strict
       winner, Bonferroni level over 8 configs x 2 metrics).
    3. Pooled: the error2 win rate stays at most 0.90, a too-good-to-be-true
       guard.

    Medians, win rates and unconverged fits are printed, not asserted.
    """
    repetitions = 100
    oracle_max_z = 4.0
    sign_alpha = 0.05 / 16
    pooled_max = 0.90

    rows = []
    failures = []
    worst_z = 0.0
    smallest_p = 1.0
    pooled = {"error1": [0, 0], "error2": [0, 0]}   # [stretched wins, trials]
    for token, cfg in benchmark_grid(BASE_SEED):
        rep = run_monte_carlo(cfg, repetitions)
        m = rep.medians
        row_fail = []

        pvalues = {}
        for metric in ("error1", "error2"):
            lsm = rep.column(f"lsm_{metric}")
            slsm = rep.column(f"slsm_{metric}")
            wins, losses = int(np.sum(slsm < lsm)), int(np.sum(lsm < slsm))
            pooled[metric][0] += wins
            pooled[metric][1] += len(rep.errors)
            pvalues[metric] = sign_test_pvalue(losses, wins + losses)
            smallest_p = min(smallest_p, pvalues[metric])
            if pvalues[metric] < sign_alpha:
                row_fail.append(f"LSM-BETTER-{metric}")

        plain_unconverged = int(np.count_nonzero(~rep.lsm.converged))
        stretched_unconverged = int(np.count_nonzero(~rep.slsm_converged))
        rows.append(
            f"  {token:14s} med-e1 {m['lsm_error1']:.4f}->{m['slsm_error1']:.4f} "
            f"med-e2 {m['lsm_error2']:.4f}->{m['slsm_error2']:.4f} "
            f"win1 {rep.win_rate_error1:.2f} win2 {rep.win_rate_error2:.2f} "
            f"sign-p {pvalues['error1']:.2f}/{pvalues['error2']:.2f} "
            f"unconverged plain {plain_unconverged} stretched {stretched_unconverged}")

        if cfg.truth_model.family == POLYNOMIAL:
            degree = cfg.truth_model.degree
            x = np.linspace(*cfg.x_domain, cfg.n)
            f = np.polyval(cfg.truth_params, x)
            sigma = cfg.eta / 100.0
            oracle_gap = (
                expected_squared_rms(polynomial_projection(x, degree), f, sigma)
                - expected_squared_rms(stretched_smoother(x, cfg.beta, degree), f, sigma))
            gaps = rep.column("lsm_error2")**2 - rep.column("slsm_error2")**2
            mc_gap = float(np.mean(gaps))
            se = float(np.std(gaps, ddof=1) / math.sqrt(gaps.size))
            z = (mc_gap - oracle_gap) / se if se > 0.0 else math.inf
            worst_z = max(worst_z, abs(z))
            if not oracle_gap > 0.0:
                row_fail.append("ORACLE-NO-GAIN")
            if not abs(z) <= oracle_max_z:
                row_fail.append("ORACLE-MISMATCH")
            rows.append(f"    oracle gap {oracle_gap:.3e}  mc gap {mc_gap:.3e} "
                        f"+- {se:.1e} (z {z:+.2f})")

        rows.append(f"    {' '.join(row_fail) if row_fail else 'ok'}")
        failures.extend(f"{token} {name}" for name in row_fail)

    pooled_text = []
    for metric, (wins, trials) in pooled.items():
        lo, hi = wilson_interval(wins, trials)
        pooled_text.append(f"win_rate_{metric} {wins}/{trials} = {wins / trials:.3f} "
                           f"(95% {lo:.3f}-{hi:.3f})")
    wins2, trials2 = pooled["error2"]
    if not wins2 / trials2 <= pooled_max:
        failures.append(f"pooled win_rate_error2 {wins2 / trials2:.3f} > {pooled_max}")

    ok = report(6, "statistical comparison (8 configs x 100 trials)", not failures,
                f"oracle max |z| {worst_z:.2f} (need <= {oracle_max_z:g}); "
                f"smallest sign-test p {smallest_p:.3f} (need >= {sign_alpha:.5f}); "
                f"pooled {'; '.join(pooled_text)} (need win_rate_error2 <= {pooled_max}); "
                f"per config:")
    for row in rows:
        print(row)
    assert ok, failures


def test_criterion_7_error_metric_units():
    x = np.linspace(0.0, 1.0, 200)
    f = x**2 + x + 2.0
    zero1 = error1(f, f)
    zero2 = error2(f, f)

    gaps = np.array([0.1, -0.3, 0.2])
    flat = np.zeros(3)
    hand1 = abs(error1(gaps, flat) - 0.3)
    hand2 = abs(error2(gaps, flat) - 0.21602468994692867)

    ok = report(7, "error metric units",
                zero1 == 0.0 and zero2 == 0.0 and hand1 <= 1e-12 and hand2 <= 1e-12,
                f"identical-curve errors ({zero1}, {zero2}), "
                f"hand-case gaps ({hand1:.1e}, {hand2:.1e})")
    assert ok


def test_criterion_8_determinism(tmp_path):
    outdir = tmp_path / "tables"
    argv = ["tables", "--reps", "12", "--seed", str(BASE_SEED), "--out", str(outdir)]
    assert cli_main(argv) == 0
    snapshot = {p.name: p.read_bytes() for p in outdir.iterdir()}
    assert cli_main(argv) == 0
    stale = [p.name for p in outdir.iterdir() if p.read_bytes() != snapshot[p.name]]

    cfg = benchmark_grid(BASE_SEED)[0][1]
    short = run_monte_carlo(cfg, 10)
    long = run_monte_carlo(cfg, 20)
    prefix_ok = (short.errors.tobytes() == long.errors[:10].tobytes()
                 and short.ordinates.tobytes() == long.ordinates[:10].tobytes())

    ok = report(8, "determinism", not stale and prefix_ok,
                f"rerun byte-diffs: {stale or 'none'} "
                f"({len(snapshot)} files); repetition-prefix stable: {prefix_ok}")
    assert ok
