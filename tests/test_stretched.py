"""Two-stage procedure: equivalences, stage contracts, and where the
transition curve is evaluated."""

import math

import numpy as np
import pytest

import stretchfit.stretched as stretched
from stretchfit import (
    ModelSpec,
    SingularFitError,
    fit_batch,
    grid_config,
    predict,
    run_monte_carlo,
    stretched_fit_batch,
)

from statstools import expected_squared_rms, polynomial_projection, stretched_smoother


def noisy_quadratic(seed: int, n: int = 120) -> tuple[np.ndarray, np.ndarray]:
    rng = np.random.default_rng(seed)
    x = np.sort(rng.uniform(0.0, 1.5, n))
    coeffs = rng.uniform(-2.0, 2.0, 3)
    y = predict(ModelSpec.polynomial(2), coeffs, x) + rng.normal(0.0, 0.3, n)
    return x, y


class TestBetaOneEquivalence:
    def test_quadratic_matches_plain_fit(self):
        # At beta = 1 the reset is xx = 2x and polynomials are closed under
        # affine reparametrization, so the pipeline reproduces plain LSM.
        for seed in range(10):
            x, y = noisy_quadratic(seed)
            plain = fit_batch(ModelSpec.polynomial(2), x, y[None])
            _, final = stretched_fit_batch(ModelSpec.polynomial(2), x, y[None], 1.0)
            np.testing.assert_allclose(final.predict(x)[0], plain.predict(x)[0], atol=1e-8)

    @pytest.mark.parametrize("degree", [0, 1, 2, 3, 4])
    def test_every_low_degree(self, degree):
        rng = np.random.default_rng(100 + degree)
        x = np.sort(rng.uniform(0.0, 2.0, 80))
        y = rng.normal(0.0, 1.0, 80)
        plain = fit_batch(ModelSpec.polynomial(degree), x, y[None])
        _, final = stretched_fit_batch(ModelSpec.polynomial(degree), x, y[None], 1.0)
        np.testing.assert_allclose(final.predict(x)[0], plain.predict(x)[0], atol=1e-8)

    def test_noiseless_sine(self):
        x = np.linspace(0.0, 1.0, 200)
        _, final = stretched_fit_batch(ModelSpec.sinusoid(), x, np.sin(x)[None], 1.0)
        np.testing.assert_allclose(final.params[0], [1.0, 1.0, 0.0, 0.0], atol=1e-5)


class TestStageContracts:
    def test_stage_results_are_self_consistent(self):
        x, y = noisy_quadratic(42)
        transition, final = stretched_fit_batch(ModelSpec.polynomial(2), x, y[None], 0.4)
        assert transition.model == final.model
        # Stage 2 solves on the transformed abscissas:
        xx = x + x**0.4
        refit = fit_batch(ModelSpec.polynomial(2), xx, y[None])
        np.testing.assert_allclose(transition.params, refit.params, rtol=1e-12)
        # Stage 3 solves on the original abscissas against smoothed ordinates:
        smoothed = predict(transition.model, transition.params, xx)
        refit3 = fit_batch(ModelSpec.polynomial(2), x, smoothed)
        np.testing.assert_allclose(final.params, refit3.params, rtol=1e-12)

    def test_stage_optimality_gradients(self):
        rng = np.random.default_rng(7)
        x = np.linspace(0.0, 1.0, 150)
        y = np.sin(x) + rng.normal(0.0, 0.3, x.size)
        transition, final = stretched_fit_batch(ModelSpec.sinusoid(), x, y[None], 0.4)
        xx = x + x**0.4
        smoothed = predict(transition.model, transition.params[0], xx)
        for stage, xs, ys in ((transition, xx, y), (final, x, smoothed)):
            a, b, c, _ = stage.params[0]
            r = predict(stage.model, stage.params[0], xs) - ys
            co = np.cos(b * xs + c)
            jac = np.column_stack([np.sin(b * xs + c), a * xs * co, a * co, np.ones_like(xs)])
            assert np.max(np.abs(jac.T @ r)) <= 1e-6 * (1.0 + stage.sse[0])

    def test_deterministic(self):
        x, y = noisy_quadratic(3)
        a_transition, a_final = stretched_fit_batch(ModelSpec.polynomial(2), x, y[None], 0.7)
        b_transition, b_final = stretched_fit_batch(ModelSpec.polynomial(2), x, y[None], 0.7)
        assert a_transition.params.tobytes() == b_transition.params.tobytes()
        assert a_final.params.tobytes() == b_final.params.tobytes()

    def test_transition_failure_propagates(self):
        # Constant abscissas make the transformed design rank deficient.
        with pytest.raises(SingularFitError):
            stretched_fit_batch(ModelSpec.polynomial(1), [1.0, 1.0, 1.0, 1.0],
                                [[1.0, 2.0, 3.0, 4.0]], 0.5)

    def test_invalid_beta_rejected(self):
        x, y = noisy_quadratic(5)
        for beta in (0.0, -0.2, 1.3):
            with pytest.raises(ValueError):
                stretched_fit_batch(ModelSpec.polynomial(2), x, y[None], beta)

    def test_negative_abscissas_rejected(self):
        with pytest.raises(ValueError):
            stretched_fit_batch(ModelSpec.polynomial(2), [-0.5, 0.2, 0.5, 1.0],
                                [[1.0, 2.0, 3.0, 4.0]], 0.5)


class TestTransitionEvaluationFlag:
    def test_original_abscissa_variant_collapses_to_transition(self, monkeypatch):
        # Evaluating the transition polynomial at the original abscissas
        # would make stage 3 an exact refit of a polynomial, so final ==
        # transition; the method evaluates it at the transformed ones.
        x, y = noisy_quadratic(11)
        monkeypatch.setattr(stretched, "predict",
                            lambda model, params, _: predict(model, params, x))
        transition, final = stretched_fit_batch(ModelSpec.polynomial(2), x, y[None], 0.4)
        np.testing.assert_allclose(final.params, transition.params, rtol=1e-9)

    def test_default_variant_differs_from_original_variant(self, monkeypatch):
        x, y = noisy_quadratic(12)
        _, default = stretched_fit_batch(ModelSpec.polynomial(2), x, y[None], 0.4)
        monkeypatch.setattr(stretched, "predict",
                            lambda model, params, _: predict(model, params, x))
        _, alt = stretched_fit_batch(ModelSpec.polynomial(2), x, y[None], 0.4)
        assert not np.allclose(default.params, alt.params)


class TestNoiselessFloor:
    def test_quadratic_floor_is_small_but_reported(self):
        # For beta < 1 a quadratic in the stretched coordinate is not a
        # quadratic in x, so even noiseless data leaves a small residual
        # bias; it is measured here rather than asserted to vanish.
        x = np.linspace(0.0, 1.0, 200)
        y = x**2 + x + 2.0
        _, final = stretched_fit_batch(ModelSpec.polynomial(2), x, y[None], 0.4)
        gap = final.predict(x)[0] - y
        floor_rms = float(np.sqrt(np.mean(gap**2)))
        assert 0.0 < floor_rms < 5e-3

    def test_floor_vanishes_at_beta_one(self):
        x = np.linspace(0.0, 1.0, 200)
        y = x**2 + x + 2.0
        _, final = stretched_fit_batch(ModelSpec.polynomial(2), x, y[None], 1.0)
        np.testing.assert_allclose(final.predict(x)[0], y, atol=1e-8)


class TestGainByDomain:
    """Where on the axis the method gains, by the exact oracle of statstools."""

    @pytest.mark.parametrize("beta, gains", [
        (0.4, (3.7806, 0.8095, 0.0323, 0.0001)),
        (0.8, (0.3140, 0.1276, 0.0110, 0.0001)),
    ])
    def test_gain_falls_away_from_zero(self, beta, gains):
        # Truth x**2 + x + 2, sigma 0.3, 200 points on unit domains: the gain
        # in E[error2**2], as a percentage of plain LSM's, comes from the
        # singularity of x**beta at 0 and vanishes as the domain moves off it.
        measured = []
        for lo in (0.0, 0.1, 1.0, 10.0):
            x = np.linspace(lo, lo + 1.0, 200)
            f = x**2 + x + 2.0
            plain = expected_squared_rms(polynomial_projection(x, 2), f, 0.3)
            stretched = expected_squared_rms(stretched_smoother(x, beta, 2), f, 0.3)
            measured.append(100.0 * (plain - stretched) / plain)
        np.testing.assert_allclose(measured, gains, rtol=0.0, atol=0.001)
        assert all(a > b for a, b in zip(measured, measured[1:]))


class TestSinusoidGainByDomain:
    """Where the method gains on sinusoids, by Monte Carlo: the sign turns with the domain."""

    @pytest.mark.parametrize("xmax, sign", [(1.0, 1.0), (2.0 * math.pi, -1.0)],
                             ids=["unit", "two_pi"])
    def test_gain_sign(self, xmax, sign):
        # Truth sin(x), beta 0.4, eta 30, 1,000 trials at seed 5.  The gain in
        # E[error2**2], as a percentage of plain LSM's, must lie at least 3
        # standard errors (of the paired differences) from 0: positive on
        # [0, 1], where the truth spans 0.16 of a period and many plain fits
        # stop at the b -> 0 edge, and negative on [0, 2*pi], where the
        # frequency is identifiable and a sinusoid in x + x**beta is a chirp
        # in x.
        report = run_monte_carlo(grid_config("sin", 0.4, 30.0, seed=5, x_domain=(0.0, xmax)),
                                 1000)
        plain, stretched = report.column("lsm_error2") ** 2, report.column("slsm_error2") ** 2
        base = plain.mean()
        gain = 100.0 * (base - stretched.mean()) / base
        se = 100.0 * np.std(plain - stretched, ddof=1) / math.sqrt(plain.size) / base
        boundary = report.lsm.stop_reasons.count("boundary")
        print(f"\nsin:b0.4:e30 on [0, {xmax:.6g}], {plain.size} trials: gain {gain:+.2f}% "
              f"+- {se:.2f}% (z = {gain / se:+.2f}), mean error2**2 plain {base:.6g} "
              f"stretched {stretched.mean():.6g}, win2 {report.summary['win_rate_error2']:.3f}, "
              f"ties2 {report.summary['ties_error2']}, plain fits at boundary {boundary}")
        assert sign * gain >= 3.0 * se
