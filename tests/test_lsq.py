"""Model evaluation, the linear solver, and the variable-projection sinusoid solver."""

import math

import numpy as np
import pytest
import scipy.linalg
import scipy.optimize

import stretchfit.lsq as lsq
from stretchfit import (
    Dataset,
    ModelSpec,
    SingularFitError,
    canonicalize_sinusoid,
    fit_linear,
    fit_nonlinear,
    predict,
)


def sin_curve(params, x):
    a, b, c, d = params
    return a * np.sin(b * x + c) + d


def sin_jacobian(params, x):
    a, b, c, _ = params
    co = np.cos(b * x + c)
    return np.column_stack([np.sin(b * x + c), a * x * co, a * co, np.ones_like(x)])


def dense_profile_reference(x, y):
    """Least SSE of a*sin(bx+c)+d, built independently of the package.

    For fixed b the model is linear, so the SSE is a profile in b.  It is
    scanned at 50 points per 2*pi/span up to 8 periods (batched QR), its
    three best local minima are polished by MINPACK Levenberg-Marquardt, and
    the quadratic fit is the b -> 0 limit.
    """
    quad, *_ = scipy.linalg.lstsq(np.vander(x, 3), y)
    best = float(np.sum((np.vander(x, 3) @ quad - y) ** 2))
    base = 2.0 * math.pi / (x.max() - x.min())
    bs = base * np.arange(1, 8 * 50 + 1) / 50
    arg = np.multiply.outer(bs, x)
    q, _ = np.linalg.qr(np.stack([np.sin(arg), np.cos(arg), np.ones_like(arg)], axis=-1))
    resid = y - np.einsum("kij,kj->ki", q, np.einsum("kij,i->kj", q, y))
    profile = np.einsum("ki,ki->k", resid, resid)
    interior = (profile[1:-1] <= profile[:-2]) & (profile[1:-1] <= profile[2:])
    minima = np.concatenate([[0], np.flatnonzero(interior) + 1])
    for i in minima[np.argsort(profile[minima])][:3]:
        b = bs[i]
        design = np.column_stack([np.sin(b * x), np.cos(b * x), np.ones_like(x)])
        (sa, ca, d), *_ = scipy.linalg.lstsq(design, y)
        start = np.array([math.hypot(sa, ca), b, math.atan2(ca, sa), d])
        polished = scipy.optimize.least_squares(
            lambda p: sin_curve(p, x) - y, start, jac=lambda p: sin_jacobian(p, x),
            method="lm", xtol=1e-15, ftol=1e-15, gtol=1e-15, max_nfev=200)
        best = min(best, profile[i], float(polished.fun @ polished.fun))
    return best


class TestModelSpec:
    def test_parameter_counts(self):
        assert ModelSpec.polynomial(2).n_params == 3
        assert ModelSpec.polynomial(0).n_params == 1
        assert ModelSpec.sinusoid().n_params == 4

    def test_invalid_specs_rejected(self):
        with pytest.raises(ValueError):
            ModelSpec.polynomial(-1)
        with pytest.raises(ValueError):
            ModelSpec("sinusoid", degree=3)
        with pytest.raises(ValueError):
            ModelSpec("spline")


class TestPredict:
    def test_quadratic_values(self):
        # x**2 + x + 2 at 0, 1, 2.
        got = predict(ModelSpec.polynomial(2), [1.0, 1.0, 2.0], [0.0, 1.0, 2.0])
        np.testing.assert_allclose(got, [2.0, 4.0, 8.0], rtol=0, atol=0)

    def test_plain_sine_values(self):
        got = predict(ModelSpec.sinusoid(), [1.0, 1.0, 0.0, 0.0], [0.0, math.pi / 2])
        np.testing.assert_allclose(got, [0.0, 1.0], atol=1e-15)

    def test_sine_phase_symmetry(self):
        rng = np.random.default_rng(3)
        x = rng.uniform(-5.0, 5.0, 64)
        for _ in range(10):
            a, b, c, d = rng.uniform(-3.0, 3.0, 4)
            left = sin_curve((a, b, c, d), x)
            right = sin_curve((-a, b, c + math.pi, d), x)
            np.testing.assert_allclose(left, right, atol=1e-12)

    def test_parameter_count_mismatch_rejected(self):
        with pytest.raises(ValueError):
            predict(ModelSpec.polynomial(2), [1.0, 2.0], [0.0])

    def test_horner_matches_power_expansion(self):
        rng = np.random.default_rng(5)
        for degree in range(5):
            p = rng.uniform(-2.0, 2.0, degree + 1)
            x = rng.uniform(-3.0, 3.0, 50)
            expected = sum(p[i] * x ** (degree - i) for i in range(degree + 1))
            np.testing.assert_allclose(
                predict(ModelSpec.polynomial(degree), p, x), expected, rtol=1e-12)


class TestFitLinear:
    def test_exact_quadratic_recovery(self):
        x = np.linspace(0.0, 1.0, 200)
        fit = fit_linear(2, Dataset(x, x**2 + x + 2.0))
        np.testing.assert_allclose(fit.params, [1.0, 1.0, 2.0], atol=1e-8)
        assert fit.converged

    def test_degree_zero_is_mean(self):
        fit = fit_linear(0, Dataset([0.0, 1.0, 2.0, 7.0], [5.0, 5.0, 5.0, 5.0]))
        np.testing.assert_allclose(fit.params, [5.0], atol=1e-14)

    def test_two_point_line(self):
        fit = fit_linear(1, Dataset([0.0, 1.0], [1.0, 3.0]))
        np.testing.assert_allclose(fit.params, [2.0, 1.0], atol=1e-12)

    def test_residual_orthogonal_to_design(self):
        rng = np.random.default_rng(7)
        x = rng.uniform(0.0, 2.0, 120)
        y = 0.5 * x**2 - x + 0.3 + rng.normal(0.0, 0.4, x.size)
        fit = fit_linear(2, Dataset(x, y))
        design = np.vander(x, 3)
        residual = design @ fit.params - y
        scale = np.linalg.norm(residual) * np.linalg.norm(design, axis=0)
        assert np.all(np.abs(design.T @ residual) <= 1e-8 * np.maximum(scale, 1.0))

    def test_perturbing_solution_increases_sse(self):
        rng = np.random.default_rng(9)
        x = rng.uniform(0.0, 1.0, 80)
        y = x**2 + x + 2.0 + rng.normal(0.0, 0.2, x.size)
        fit = fit_linear(2, Dataset(x, y))

        def sse(p):
            r = predict(fit.model, p, x) - y
            return r @ r

        base = sse(fit.params)
        for j in range(3):
            for delta in (1e-4, -1e-4):
                bumped = fit.params.copy()
                bumped[j] += delta
                assert sse(bumped) > base

    def test_permutation_invariance(self):
        rng = np.random.default_rng(11)
        x = np.linspace(0.0, 1.0, 60)
        truth = np.array([0.7, -1.2, 0.4])
        y = predict(ModelSpec.polynomial(2), truth, x)
        perm = rng.permutation(x.size)
        fit = fit_linear(2, Dataset(x[perm], y[perm]))
        np.testing.assert_allclose(fit.predict(x), y, atol=1e-8)

    def test_rank_deficient_design_rejected(self):
        with pytest.raises(SingularFitError):
            fit_linear(1, Dataset([2.0, 2.0, 2.0], [1.0, 2.0, 3.0]))

    def test_too_few_points_rejected(self):
        with pytest.raises(ValueError):
            fit_linear(2, Dataset([0.0, 1.0], [1.0, 2.0]))

    def test_deterministic(self):
        rng = np.random.default_rng(13)
        x = rng.uniform(0.0, 1.0, 90)
        y = rng.normal(0.0, 1.0, 90)
        a = fit_linear(3, Dataset(x, y))
        b = fit_linear(3, Dataset(x, y))
        assert a.params.tobytes() == b.params.tobytes()
        assert a.sse == b.sse


class TestFitNonlinear:
    def test_noiseless_sine_recovery(self):
        x = np.linspace(0.0, 1.0, 200)
        fit = fit_nonlinear(Dataset(x, np.sin(x)))
        np.testing.assert_allclose(fit.params, [1.0, 1.0, 0.0, 0.0], atol=1e-6)
        assert fit.converged

    def test_generate_and_recover(self):
        truth = np.array([2.0, 0.5, 0.3, -1.0])
        x = np.linspace(0.0, 1.0, 200)
        fit = fit_nonlinear(Dataset(x, sin_curve(truth, x)))
        np.testing.assert_allclose(fit.params, truth, atol=1e-6)

    def test_canonical_form(self):
        rng = np.random.default_rng(17)
        x = np.linspace(0.0, 3.0, 150)
        y = sin_curve((-1.3, 2.0, 2.8, 0.1), x) + rng.normal(0.0, 0.05, x.size)
        fit = fit_nonlinear(Dataset(x, y))
        a, _, c, _ = fit.params
        assert a > 0.0
        assert -math.pi < c <= math.pi

    def test_canonicalize_preserves_curve(self):
        rng = np.random.default_rng(19)
        x = rng.uniform(-4.0, 4.0, 80)
        for i in range(40):
            p = rng.uniform(-3.0, 3.0, 4)
            p[1] = -abs(p[1]) if i % 2 else abs(p[1])
            q = canonicalize_sinusoid(p)
            assert q[0] >= 0.0
            assert q[1] == abs(p[1])
            assert -math.pi < q[2] <= math.pi
            np.testing.assert_allclose(sin_curve(p, x), sin_curve(q, x), atol=1e-10)

    def test_gradient_small_at_solution(self):
        rng = np.random.default_rng(23)
        x = np.linspace(0.0, 1.0, 200)
        y = np.sin(x) + rng.normal(0.0, 0.3, x.size)
        fit = fit_nonlinear(Dataset(x, y))
        r = sin_curve(fit.params, x) - y
        assert np.max(np.abs(sin_jacobian(fit.params, x).T @ r)) <= 1e-6 * (1.0 + fit.sse)

    def test_deterministic_including_multistart(self):
        rng = np.random.default_rng(31)
        x = np.linspace(0.0, 1.0, 150)
        y = np.sin(x) + rng.normal(0.0, 0.5, x.size)
        a = fit_nonlinear(Dataset(x, y))
        b = fit_nonlinear(Dataset(x, y))
        assert a.params.tobytes() == b.params.tobytes()
        assert (a.sse, a.iterations, a.converged) == (b.sse, b.iterations, b.converged)

    def test_frequency_grid_is_deterministic(self):
        # 160 frequencies k * base / 20, base = 2*pi / span: up to 8 periods
        # over the span, fixed by the span alone.
        x = np.linspace(0.0, 2.0, 100)
        grid = lsq._frequency_grid(x)
        base = 2.0 * math.pi / 2.0
        assert grid.size == 160
        assert grid[0] == base / 20
        np.testing.assert_allclose(grid, base / 20 * np.arange(1, 161), rtol=1e-15)
        np.testing.assert_allclose(grid[-1], 8 * base, rtol=1e-15)
        assert lsq._frequency_grid(x + 3.0).tobytes() == grid.tobytes()
        assert lsq._frequency_grid(x[::-1]).tobytes() == grid.tobytes()

    def test_too_few_points_rejected(self):
        with pytest.raises(ValueError):
            fit_nonlinear(Dataset([0.0, 1.0, 2.0], [0.1, 0.2, 0.3]))

    def test_boundary_optimum_is_flagged(self):
        # On [0, 1] the noisy sin(x) profile often falls toward b -> 0, where
        # the family degenerates to a quadratic: the fit stops on the lowest
        # grid frequency, exactly solved there, and says so.
        x = np.linspace(0.0, 1.0, 200)
        y = np.sin(x) + np.random.default_rng(0).normal(0.0, 0.3, x.size)
        fit = fit_nonlinear(Dataset(x, y))
        assert fit.stop_reason == "boundary"
        assert fit.converged is False
        assert fit.params[1] == 2.0 * math.pi / 20
        r = sin_curve(fit.params, x) - y
        assert fit.sse == pytest.approx(r @ r, rel=1e-12)
        quad = np.polyval(np.polyfit(x, y, 2), x) - y
        tss = float(np.sum((y - y.mean()) ** 2))
        assert quad @ quad <= fit.sse <= quad @ quad + 1e-3 * tss

    def test_upper_boundary_optimum_is_flagged(self):
        # 12.5 periods on [0, 1] lie above the search domain's 8: the profile
        # falls toward its upper end, where the fit stops, exactly solved.
        # (A whole number of periods there would be orthogonal to the edge's
        # 8 and fall onto a side lobe instead.)
        x = np.linspace(0.0, 1.0, 200)
        y = np.sin(2.0 * math.pi * 12.5 * x)
        fit = fit_nonlinear(Dataset(x, y))
        assert fit.stop_reason == "boundary"
        assert fit.converged is False
        assert fit.params[1] == 8 * 2.0 * math.pi
        r = sin_curve(fit.params, x) - y
        assert fit.sse == pytest.approx(r @ r, rel=1e-12)
        inside = lsq._linear_at(lsq._frequency_grid(x)[-2], x, y)[1]
        assert fit.sse < inside

    def test_global_optimum_against_dense_profile(self):
        # Every fit not stopped at the boundary is at least as good as an
        # independent reference: a dense profile in b, MINPACK polish of its
        # three best basins, and the quadratic b -> 0 limit.
        rng = np.random.default_rng(41)
        checked = 0
        for _ in range(60):
            n = int(rng.integers(20, 300))
            lo = rng.uniform(0.0, 2.0)
            x = np.sort(rng.uniform(lo, lo + rng.uniform(0.5, 5.0), n))
            base = 2.0 * math.pi / (x[-1] - x[0])
            truth = (rng.uniform(0.2, 3.0), base * rng.uniform(0.1, 7.5),
                     rng.uniform(-math.pi, math.pi), rng.uniform(-2.0, 2.0))
            y = sin_curve(truth, x) + rng.normal(0.0, rng.uniform(0.0, 1.5), n)
            fit = fit_nonlinear(Dataset(x, y))
            if fit.stop_reason == "boundary":
                continue
            checked += 1
            assert fit.converged
            assert fit.sse <= (1.0 + 1e-9) * dense_profile_reference(x, y)
        assert checked >= 50


class TestProfileKernels:
    """The closed-form profile, the scan tables and their cache."""

    @staticmethod
    def abscissas():
        x = np.linspace(0.0, 1.0, 200)
        return {"x": x, "xx": x + x**0.4, "shifted": np.linspace(1000.0, 1001.0, 200)}

    @pytest.mark.parametrize("name", ["x", "xx", "shifted"])
    def test_closed_form_matches_exact_profile(self, name):
        x = self.abscissas()[name]
        rng = np.random.default_rng(43)
        y = np.sin(x - x[0]) + rng.normal(0.0, 0.3, x.size)
        yc = y - y.mean()
        tss = float(yc @ yc)
        bs = lsq._frequency_grid(x)
        exact = np.array([lsq._linear_at(b, x, y)[1] for b in bs])
        closed = np.array([lsq._profile_at(b, x, yc, tss) for b in bs])
        scan = lsq._grid_profile(x, yc, tss)
        assert np.max(np.abs(closed - exact)) <= 1e-12 * tss
        assert np.max(np.abs(scan - exact)) <= 1e-12 * tss

    def test_warm_scan_equals_cold(self):
        rng = np.random.default_rng(47)
        for x in self.abscissas().values():
            y = rng.normal(0.0, 1.0, x.size)
            yc = y - y.mean()
            tss = float(yc @ yc)
            lsq._scan_table.cache_clear()
            cold = lsq._grid_profile(x, yc, tss)
            warm = lsq._grid_profile(x.copy(), yc, tss)
            assert lsq._scan_table.cache_info().hits == 1
            assert warm.tobytes() == cold.tobytes()

    def test_long_data_is_not_cached(self):
        x = np.linspace(0.0, 1.0, 2000)
        y = np.sin(3.0 * x) + np.random.default_rng(53).normal(0.0, 0.3, x.size)
        lsq._scan_table.cache_clear()
        fit_nonlinear(Dataset(x, y))
        assert lsq._scan_table.cache_info().currsize == 0


class TestFitDispatch:
    def test_routes_by_family(self):
        x = np.linspace(0.0, 1.0, 100)
        poly = lsq.fit(ModelSpec.polynomial(1), Dataset(x, 3.0 * x + 1.0))
        np.testing.assert_allclose(poly.params, [3.0, 1.0], atol=1e-10)
        sine = lsq.fit(ModelSpec.sinusoid(), Dataset(x, np.sin(x)))
        np.testing.assert_allclose(sine.params, [1.0, 1.0, 0.0, 0.0], atol=1e-6)


class TestDataset:
    def test_length_mismatch_rejected(self):
        with pytest.raises(ValueError):
            Dataset([0.0, 1.0], [1.0])

    def test_non_finite_rejected(self):
        with pytest.raises(ValueError):
            Dataset([0.0, float("inf")], [1.0, 2.0])
