"""Two-stage procedure: equivalences, stage contracts, and where the
transition curve is evaluated."""

import numpy as np
import pytest

import stretchfit.stretched as stretched
from stretchfit import (
    Dataset,
    ModelSpec,
    StageFailure,
    fit,
    predict,
    stretched_fit,
)


def noisy_quadratic(seed: int, n: int = 120) -> Dataset:
    rng = np.random.default_rng(seed)
    x = np.sort(rng.uniform(0.0, 1.5, n))
    coeffs = rng.uniform(-2.0, 2.0, 3)
    y = predict(ModelSpec.polynomial(2), coeffs, x) + rng.normal(0.0, 0.3, n)
    return Dataset(x, y)


class TestBetaOneEquivalence:
    def test_quadratic_matches_plain_fit(self):
        # At beta = 1 the reset is xx = 2x and polynomials are closed under
        # affine reparametrization, so the pipeline reproduces plain LSM.
        for seed in range(10):
            data = noisy_quadratic(seed)
            plain = fit(ModelSpec.polynomial(2), data)
            two_stage = stretched_fit(ModelSpec.polynomial(2), data, 1.0)
            np.testing.assert_allclose(
                two_stage.predict(data.x), plain.predict(data.x), atol=1e-8)

    @pytest.mark.parametrize("degree", [0, 1, 2, 3, 4])
    def test_every_low_degree(self, degree):
        rng = np.random.default_rng(100 + degree)
        x = np.sort(rng.uniform(0.0, 2.0, 80))
        y = rng.normal(0.0, 1.0, 80)
        plain = fit(ModelSpec.polynomial(degree), Dataset(x, y))
        two_stage = stretched_fit(ModelSpec.polynomial(degree), Dataset(x, y), 1.0)
        np.testing.assert_allclose(
            two_stage.predict(x), plain.predict(x), atol=1e-8)

    def test_noiseless_sine(self):
        x = np.linspace(0.0, 1.0, 200)
        result = stretched_fit(ModelSpec.sinusoid(), Dataset(x, np.sin(x)), 1.0)
        np.testing.assert_allclose(result.final.params, [1.0, 1.0, 0.0, 0.0], atol=1e-5)


class TestStageContracts:
    def test_stage_results_are_self_consistent(self):
        data = noisy_quadratic(42)
        result = stretched_fit(ModelSpec.polynomial(2), data, 0.4)
        assert result.beta == 0.4
        assert result.transition.model == result.final.model
        # Stage 2 solves on the transformed abscissas:
        xx = data.x + data.x**0.4
        refit = fit(ModelSpec.polynomial(2), Dataset(xx, data.y))
        np.testing.assert_allclose(result.transition.params, refit.params, rtol=1e-12)
        # Stage 3 solves on the original abscissas against smoothed ordinates:
        smoothed = predict(result.transition.model, result.transition.params, xx)
        refit3 = fit(ModelSpec.polynomial(2), Dataset(data.x, smoothed))
        np.testing.assert_allclose(result.final.params, refit3.params, rtol=1e-12)

    def test_stage_optimality_gradients(self):
        rng = np.random.default_rng(7)
        x = np.linspace(0.0, 1.0, 150)
        y = np.sin(x) + rng.normal(0.0, 0.3, x.size)
        result = stretched_fit(ModelSpec.sinusoid(), Dataset(x, y), 0.4)
        xx = x + x**0.4
        smoothed = predict(result.transition.model, result.transition.params, xx)
        for fit, xs, ys in ((result.transition, xx, y), (result.final, x, smoothed)):
            a, b, c, _ = fit.params
            r = predict(fit.model, fit.params, xs) - ys
            co = np.cos(b * xs + c)
            jac = np.column_stack([np.sin(b * xs + c), a * xs * co, a * co, np.ones_like(xs)])
            assert np.max(np.abs(jac.T @ r)) <= 1e-6 * (1.0 + fit.sse)

    def test_deterministic(self):
        data = noisy_quadratic(3)
        a = stretched_fit(ModelSpec.polynomial(2), data, 0.7)
        b = stretched_fit(ModelSpec.polynomial(2), data, 0.7)
        assert a.transition.params.tobytes() == b.transition.params.tobytes()
        assert a.final.params.tobytes() == b.final.params.tobytes()

    def test_transition_failure_tagged(self):
        # Constant abscissas make the transformed design rank deficient.
        data = Dataset([1.0, 1.0, 1.0, 1.0], [1.0, 2.0, 3.0, 4.0])
        with pytest.raises(StageFailure) as info:
            stretched_fit(ModelSpec.polynomial(1), data, 0.5)
        assert info.value.stage == "transition"

    def test_invalid_beta_rejected(self):
        data = noisy_quadratic(5)
        for beta in (0.0, -0.2, 1.3):
            with pytest.raises(ValueError):
                stretched_fit(ModelSpec.polynomial(2), data, beta)

    def test_negative_abscissas_rejected(self):
        data = Dataset([-0.5, 0.2, 0.5, 1.0], [1.0, 2.0, 3.0, 4.0])
        with pytest.raises(ValueError):
            stretched_fit(ModelSpec.polynomial(2), data, 0.5)


class TestTransitionEvaluationFlag:
    def test_original_abscissa_variant_collapses_to_transition(self, monkeypatch):
        # Evaluating the transition polynomial at the original abscissas
        # would make stage 3 an exact refit of a polynomial, so final ==
        # transition; the method evaluates it at the transformed ones.
        data = noisy_quadratic(11)
        monkeypatch.setattr(stretched, "predict",
                            lambda model, params, x: predict(model, params, data.x))
        alt = stretched_fit(ModelSpec.polynomial(2), data, 0.4)
        np.testing.assert_allclose(alt.final.params, alt.transition.params, rtol=1e-9)

    def test_default_variant_differs_from_original_variant(self, monkeypatch):
        data = noisy_quadratic(12)
        default = stretched_fit(ModelSpec.polynomial(2), data, 0.4)
        monkeypatch.setattr(stretched, "predict",
                            lambda model, params, x: predict(model, params, data.x))
        alt = stretched_fit(ModelSpec.polynomial(2), data, 0.4)
        assert not np.allclose(default.final.params, alt.final.params)


class TestNoiselessFloor:
    def test_quadratic_floor_is_small_but_reported(self):
        # For beta < 1 a quadratic in the stretched coordinate is not a
        # quadratic in x, so even noiseless data leaves a small residual
        # bias; it is measured here rather than asserted to vanish.
        x = np.linspace(0.0, 1.0, 200)
        y = x**2 + x + 2.0
        result = stretched_fit(ModelSpec.polynomial(2), Dataset(x, y), 0.4)
        gap = result.predict(x) - y
        floor_rms = float(np.sqrt(np.mean(gap**2)))
        assert 0.0 < floor_rms < 5e-3

    def test_floor_vanishes_at_beta_one(self):
        x = np.linspace(0.0, 1.0, 200)
        y = x**2 + x + 2.0
        result = stretched_fit(ModelSpec.polynomial(2), Dataset(x, y), 1.0)
        np.testing.assert_allclose(result.predict(x), y, atol=1e-8)
