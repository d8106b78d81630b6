"""Model evaluation, the linear solver, and the variable-projection sinusoid solver."""

import math

import numpy as np
import pytest
import scipy.linalg
import scipy.optimize

import stretchfit.lsq as lsq
from stretchfit import (
    ModelSpec,
    SingularFitError,
    canonicalize_sinusoid,
    fit_batch,
    predict,
)


def sin_curve(params, x):
    a, b, c, d = params
    return a * np.sin(b * x + c) + d


def sin_jacobian(params, x):
    a, b, c, _ = params
    co = np.cos(b * x + c)
    return np.column_stack([np.sin(b * x + c), a * x * co, a * co, np.ones_like(x)])


def dense_profile(x, y):
    """Exact SSE profile of a*sin(bx+c)+d in b, built independently of the package.

    For fixed b the model is linear, so the SSE is a profile in b.  It is
    scanned at 50 points per 2*pi/span up to 8 periods, and below (n - 1)/2
    periods, Nyquist on n equally spaced points (batched QR).  Returns the
    frequencies and the profile.
    """
    base = 2.0 * math.pi / (x.max() - x.min())
    bs = base * np.arange(1, min(8 * 50, 25 * (x.size - 1) - 1) + 1) / 50
    arg = np.multiply.outer(bs, x)
    q, _ = np.linalg.qr(np.stack([np.sin(arg), np.cos(arg), np.ones_like(arg)], axis=-1))
    resid = y - np.einsum("kij,kj->ki", q, np.einsum("kij,i->kj", q, y))
    return bs, np.einsum("ki,ki->k", resid, resid)


def dense_profile_reference(x, y):
    """Least SSE of a*sin(bx+c)+d, built independently of the package.

    The three best local minima of the dense profile are polished by MINPACK
    Levenberg-Marquardt, and the quadratic fit is the b -> 0 limit.
    """
    quad, *_ = scipy.linalg.lstsq(np.vander(x, 3), y)
    best = float(np.sum((np.vander(x, 3) @ quad - y) ** 2))
    bs, profile = dense_profile(x, y)
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
        result = fit_batch(ModelSpec.polynomial(2), x, (x**2 + x + 2.0)[None])
        np.testing.assert_allclose(result.params[0], [1.0, 1.0, 2.0], atol=1e-8)
        assert result.converged[0]

    def test_degree_zero_is_mean(self):
        result = fit_batch(ModelSpec.polynomial(0), [0.0, 1.0, 2.0, 7.0], [[5.0, 5.0, 5.0, 5.0]])
        np.testing.assert_allclose(result.params[0], [5.0], atol=1e-14)

    def test_two_point_line(self):
        result = fit_batch(ModelSpec.polynomial(1), [0.0, 1.0], [[1.0, 3.0]])
        np.testing.assert_allclose(result.params[0], [2.0, 1.0], atol=1e-12)

    def test_residual_orthogonal_to_design(self):
        rng = np.random.default_rng(7)
        x = rng.uniform(0.0, 2.0, 120)
        y = 0.5 * x**2 - x + 0.3 + rng.normal(0.0, 0.4, x.size)
        result = fit_batch(ModelSpec.polynomial(2), x, y[None])
        design = np.vander(x, 3)
        residual = design @ result.params[0] - y
        scale = np.linalg.norm(residual) * np.linalg.norm(design, axis=0)
        assert np.all(np.abs(design.T @ residual) <= 1e-8 * np.maximum(scale, 1.0))

    def test_perturbing_solution_increases_sse(self):
        rng = np.random.default_rng(9)
        x = rng.uniform(0.0, 1.0, 80)
        y = x**2 + x + 2.0 + rng.normal(0.0, 0.2, x.size)
        result = fit_batch(ModelSpec.polynomial(2), x, y[None])

        def sse(p):
            r = predict(result.model, p, x) - y
            return r @ r

        base = sse(result.params[0])
        for j in range(3):
            for delta in (1e-4, -1e-4):
                bumped = result.params[0].copy()
                bumped[j] += delta
                assert sse(bumped) > base

    def test_permutation_invariance(self):
        rng = np.random.default_rng(11)
        x = np.linspace(0.0, 1.0, 60)
        truth = np.array([0.7, -1.2, 0.4])
        y = predict(ModelSpec.polynomial(2), truth, x)
        perm = rng.permutation(x.size)
        result = fit_batch(ModelSpec.polynomial(2), x[perm], y[perm][None])
        np.testing.assert_allclose(result.predict(x)[0], y, atol=1e-8)

    def test_rank_deficient_design_rejected(self):
        with pytest.raises(SingularFitError):
            fit_batch(ModelSpec.polynomial(1), [2.0, 2.0, 2.0], [[1.0, 2.0, 3.0]])

    def test_too_few_points_rejected(self):
        with pytest.raises(ValueError):
            fit_batch(ModelSpec.polynomial(2), [0.0, 1.0], [[1.0, 2.0]])

    def test_overflowing_powers_rejected(self):
        # x**2 overflows above about 1.34e154, and an SVD of a design that
        # holds inf does not return.
        with pytest.raises(ValueError, match=r"polynomial fit overflows \(overflow encountered"):
            fit_batch(ModelSpec.polynomial(2), np.arange(5) * 1e200, [np.arange(5.0)])

    def test_deterministic(self):
        rng = np.random.default_rng(13)
        x = rng.uniform(0.0, 1.0, 90)
        y = rng.normal(0.0, 1.0, 90)
        a = fit_batch(ModelSpec.polynomial(3), x, y[None])
        b = fit_batch(ModelSpec.polynomial(3), x, y[None])
        assert a.params.tobytes() == b.params.tobytes()
        assert a.sse[0] == b.sse[0]


class TestFitNonlinear:
    def test_noiseless_sine_recovery(self):
        x = np.linspace(0.0, 1.0, 200)
        result = fit_batch(ModelSpec.sinusoid(), x, np.sin(x)[None])
        np.testing.assert_allclose(result.params[0], [1.0, 1.0, 0.0, 0.0], atol=1e-6)
        assert result.converged[0]

    def test_generate_and_recover(self):
        truth = np.array([2.0, 0.5, 0.3, -1.0])
        x = np.linspace(0.0, 1.0, 200)
        result = fit_batch(ModelSpec.sinusoid(), x, sin_curve(truth, x)[None])
        np.testing.assert_allclose(result.params[0], truth, atol=1e-6)

    def test_canonical_form(self):
        rng = np.random.default_rng(17)
        x = np.linspace(0.0, 3.0, 150)
        y = sin_curve((-1.3, 2.0, 2.8, 0.1), x) + rng.normal(0.0, 0.05, x.size)
        result = fit_batch(ModelSpec.sinusoid(), x, y[None])
        a, _, c, _ = result.params[0]
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
        result = fit_batch(ModelSpec.sinusoid(), x, y[None])
        params, sse = result.params[0], result.sse[0]
        r = sin_curve(params, x) - y
        assert np.max(np.abs(sin_jacobian(params, x).T @ r)) <= 1e-6 * (1.0 + sse)

    def test_deterministic_including_multistart(self):
        rng = np.random.default_rng(31)
        x = np.linspace(0.0, 1.0, 150)
        y = np.sin(x) + rng.normal(0.0, 0.5, x.size)
        a = fit_batch(ModelSpec.sinusoid(), x, y[None])
        b = fit_batch(ModelSpec.sinusoid(), x, y[None])
        assert a.params.tobytes() == b.params.tobytes()
        assert (a.sse[0], a.iterations[0], a.converged[0]) == (
            b.sse[0], b.iterations[0], b.converged[0])

    def test_frequency_grid_is_deterministic(self):
        # 160 frequencies k * base / 20, base = 2*pi / span: up to 8 periods
        # over the span, fixed by the span and, below 18 points, by Nyquist.
        x = np.linspace(0.0, 2.0, 100)
        grid = lsq._frequency_grid(x)
        base = 2.0 * math.pi / 2.0
        assert grid.size == 160
        assert grid[0] == base / 20
        np.testing.assert_allclose(grid, base / 20 * np.arange(1, 161), rtol=1e-15)
        np.testing.assert_allclose(grid[-1], 8 * base, rtol=1e-15)
        assert lsq._frequency_grid(x + 3.0).tobytes() == grid.tobytes()
        assert lsq._frequency_grid(x[::-1]).tobytes() == grid.tobytes()
        for n, size in [(4, 29), (9, 79), (17, 159), (18, 160)]:
            small = lsq._frequency_grid(np.linspace(0.0, 2.0, n))
            np.testing.assert_array_equal(small, grid[:size])
            assert small[-1] * 2.0 < math.pi * (n - 1)

    def test_too_few_points_rejected(self):
        with pytest.raises(ValueError):
            fit_batch(ModelSpec.sinusoid(), [0.0, 1.0, 2.0], [[0.1, 0.2, 0.3]])

    @pytest.mark.parametrize("span", [1e-310, 1e-307, 5e-307])
    def test_too_short_span_rejected(self, span):
        # 2*pi / span overflows below about 3.5e-308, the last grid frequency
        # below about 2.8e-307, and the sum of two grid frequencies, which the
        # refinement bisects, below about 5.6e-307; each made the fit loop on
        # an infinite bracket or report an overflow of the data.
        x = np.linspace(0.0, span, 200)
        with pytest.raises(ValueError, match=f"abscissa span {span!r} is too short"):
            fit_batch(ModelSpec.sinusoid(), x, [np.sin(np.arange(200.0))])

    def test_shortest_span_fits(self):
        x = np.linspace(0.0, 6e-307, 200)
        result = fit_batch(ModelSpec.sinusoid(), x, [np.sin(np.arange(200.0))])
        assert np.all(np.isfinite(result.params))

    def test_boundary_optimum_is_flagged(self):
        # On [0, 1] the noisy sin(x) profile often falls toward b -> 0, where
        # the family degenerates to a quadratic: the fit stops on the lowest
        # grid frequency, exactly solved there, and says so.
        x = np.linspace(0.0, 1.0, 200)
        y = np.sin(x) + np.random.default_rng(0).normal(0.0, 0.3, x.size)
        result = fit_batch(ModelSpec.sinusoid(), x, y[None])
        params, sse = result.params[0], result.sse[0]
        assert result.stop_reasons[0] == "boundary"
        assert not result.converged[0]
        assert params[1] == 2.0 * math.pi / 20
        r = sin_curve(params, x) - y
        assert sse == pytest.approx(r @ r, rel=1e-12)
        quad = np.polyval(np.polyfit(x, y, 2), x) - y
        tss = float(np.sum((y - y.mean()) ** 2))
        assert quad @ quad <= sse <= quad @ quad + 1e-3 * tss

    def test_upper_boundary_optimum_is_flagged(self):
        # 12.5 periods on [0, 1] lie above the search domain's 8: the profile
        # falls toward its upper end, where the fit stops, exactly solved.
        # (A whole number of periods there would be orthogonal to the edge's
        # 8 and fall onto a side lobe instead.)
        x = np.linspace(0.0, 1.0, 200)
        y = np.sin(2.0 * math.pi * 12.5 * x)
        result = fit_batch(ModelSpec.sinusoid(), x, y[None])
        params, sse = result.params[0], result.sse[0]
        assert result.stop_reasons[0] == "boundary"
        assert not result.converged[0]
        assert params[1] == 8 * 2.0 * math.pi
        r = sin_curve(params, x) - y
        assert sse == pytest.approx(r @ r, rel=1e-12)
        inside = lsq._linear_at(lsq._frequency_grid(x)[-2], x, y)[1]
        assert sse < inside

    def test_global_optimum_against_dense_profile(self):
        # Every fit not stopped at the boundary is at least as good as an
        # independent reference: a dense profile in b, MINPACK polish of its
        # three best basins, and the quadratic b -> 0 limit.
        rng = np.random.default_rng(41)
        evaluations = []
        for _ in range(60):
            n = int(rng.integers(20, 300))
            lo = rng.uniform(0.0, 2.0)
            x = np.sort(rng.uniform(lo, lo + rng.uniform(0.5, 5.0), n))
            base = 2.0 * math.pi / (x[-1] - x[0])
            truth = (rng.uniform(0.2, 3.0), base * rng.uniform(0.1, 7.5),
                     rng.uniform(-math.pi, math.pi), rng.uniform(-2.0, 2.0))
            y = sin_curve(truth, x) + rng.normal(0.0, rng.uniform(0.0, 1.5), n)
            result = fit_batch(ModelSpec.sinusoid(), x, y[None])
            if result.stop_reasons[0] == "boundary":
                continue
            evaluations.append(result.iterations[0])
            assert result.converged[0]
            assert result.sse[0] <= (1.0 + 1e-9) * dense_profile_reference(x, y)
        assert len(evaluations) >= 50
        # Newton from the grid point needs a few derivative evaluations; a
        # refinement that falls back to bisection needs about 20.
        assert np.mean(evaluations) < 8

    def test_small_equally_spaced_data_stay_below_nyquist(self):
        # On n equally spaced points, frequencies above Nyquist alias lower
        # ones, and at b*h = 2*pi the sin and cos columns are constant, so a
        # search reaching there can rank a degenerate frequency first.  Each
        # fit must come within 5% of TSS of the dense sub-Nyquist profile.
        rng = np.random.default_rng(61)
        cases = [(9, 0.5)] * 20 + [
            (int(rng.integers(4, 40)), float(rng.choice([1.0, 0.5, 0.1]))) for _ in range(280)]
        for n, h in cases:
            x = h * np.arange(n) + rng.uniform(-5.0, 5.0)
            y = rng.normal(0.0, 1.0, n)
            tss = float(np.sum((y - y.mean()) ** 2))
            result = fit_batch(ModelSpec.sinusoid(), x, y[None])
            assert result.sse[0] <= dense_profile(x, y)[1].min() + 0.05 * tss, (n, h)


class TestProfileKernels:
    """The closed-form profile and its derivatives, the scan tables and their cache."""

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
        closed = np.array([lsq._profile_derivatives(b, x - x.mean(), yc, tss)[0] for b in bs])
        scan = lsq._grid_profiles(x, [yc], [tss])[0]
        assert np.max(np.abs(closed - exact)) <= 1e-12 * tss
        assert np.max(np.abs(scan - exact)) <= 1e-12 * tss

    @pytest.mark.parametrize("name", ["x", "xx", "shifted"])
    def test_derivatives_match_central_differences(self, name):
        # f' and f'' of the closed form against central differences of the
        # exact profile, scaled by the units of tss * span**k.
        x = self.abscissas()[name]
        rng = np.random.default_rng(59)
        y = np.sin(3.0 * (x - x[0])) + rng.normal(0.0, 0.3, x.size)
        yc = y - y.mean()
        tss = float(yc @ yc)
        span = x[-1] - x[0]

        def exact(b):
            return lsq._linear_at(b, x, y)[1]

        for b in lsq._frequency_grid(x)[::7]:
            _, slope, curvature = lsq._profile_derivatives(b, x - x.mean(), yc, tss)
            h = 1e-4 / span
            assert slope == pytest.approx((exact(b + h) - exact(b - h)) / (2 * h),
                                          abs=1e-8 * tss * span)
            h = 1e-3 / span
            assert curvature == pytest.approx((exact(b + h) - 2 * exact(b) + exact(b - h)) / h**2,
                                              abs=1e-5 * tss * span**2)

    def test_warm_scan_equals_cold(self):
        rng = np.random.default_rng(47)
        for x in self.abscissas().values():
            y = rng.normal(0.0, 1.0, x.size)
            yc = y - y.mean()
            tss = float(yc @ yc)
            lsq._scan_table.cache_clear()
            cold = lsq._grid_profiles(x, [yc], [tss])[0]
            warm = lsq._grid_profiles(x.copy(), [yc], [tss])[0]
            assert lsq._scan_table.cache_info().hits == 1
            assert warm.tobytes() == cold.tobytes()

    def test_long_data_is_not_cached(self):
        x = np.linspace(0.0, 1.0, 2000)
        y = np.sin(3.0 * x) + np.random.default_rng(53).normal(0.0, 0.3, x.size)
        lsq._scan_table.cache_clear()
        fit_batch(ModelSpec.sinusoid(), x, y[None])
        assert lsq._scan_table.cache_info().currsize == 0


class TestFitBatch:
    """A batch fits every ordinate row on shared abscissas; a single fit is a batch of one."""

    @staticmethod
    def rows(x, m, seed):
        return np.sin(3.0 * x) + x**2 + np.random.default_rng(seed).normal(0.0, 0.3, (m, x.size))

    @pytest.mark.parametrize("model", [ModelSpec.polynomial(2), ModelSpec.sinusoid()],
                             ids=["poly", "sin"])
    def test_single_fit_equals_batch_row(self, model):
        # A sinusoid scan at n = 200 comes from the cached table, at n = 1,000
        # block by block; both sizes have rows of both stop reasons.
        for n in (200, 1000):
            x = np.linspace(0.0, 1.0, n)
            ys = self.rows(x, 5, 67)
            batch = lsq.fit_batch(model, x, ys)
            for i, y in enumerate(ys):
                single = lsq.fit_batch(model, x, y[None])
                assert single.params[0].tobytes() == batch.params[i].tobytes()
                assert (single.sse[0], single.iterations[0], single.stop_reasons[0]) == (
                    batch.sse[i], batch.iterations[i], batch.stop_reasons[i])
                assert single.predict(x)[0].tobytes() == batch.predict(x)[i].tobytes()
            if model == ModelSpec.sinusoid():
                assert {"boundary", "tolerance"} <= set(batch.stop_reasons)

    def test_sinusoid_scan_set_up_once_per_batch(self, monkeypatch):
        # Above 409 points the scan table is not cached: a batch builds it
        # block by block once, and every row is evaluated inside each block.
        calls = []
        scan_blocks = lsq._scan_blocks
        monkeypatch.setattr(lsq, "_scan_blocks", lambda x: calls.append(x) or scan_blocks(x))
        x = np.linspace(0.0, 1.0, 1000)
        batch = lsq.fit_batch(ModelSpec.sinusoid(), x, self.rows(x, 5, 67))
        assert len(batch.sse) == 5
        assert len(calls) == 1

    @pytest.mark.parametrize("model", [ModelSpec.polynomial(2), ModelSpec.sinusoid()],
                             ids=["poly", "sin"])
    def test_empty_batch(self, model):
        x = np.linspace(0.0, 1.0, 200)
        batch = lsq.fit_batch(model, x, np.empty((0, x.size)))
        assert batch.params.shape == (0, model.n_params)
        assert batch.sse.shape == (0,)
        assert (batch.iterations, batch.stop_reasons) == ((), ())
        assert batch.predict(x).shape == (0, x.size)

    def test_polynomial_rows_do_not_depend_on_batch_size(self):
        # A BLAS matrix product changes a row's last bits with the row count.
        x = np.linspace(0.0, 1.0, 200)
        ys = self.rows(x, 250, 71)
        full = lsq.fit_linear(2, x, ys)
        for m in (1, 2, 3, 7, 100):
            part = lsq.fit_linear(2, x, ys[:m].copy())
            assert part.params.tobytes() == full.params[:m].tobytes()
            assert part.sse.tobytes() == full.sse[:m].tobytes()

    @pytest.mark.parametrize("beta", [None, 0.4, 0.8], ids=["x", "xx0.4", "xx0.8"])
    def test_polynomial_batch_matches_lstsq(self, beta):
        x = np.linspace(0.0, 1.0, 200)
        xs = x if beta is None else x + x**beta
        ys = self.rows(x, 40, 73)
        batch = lsq.fit_linear(2, xs, ys)
        design = np.vander(xs, 3)
        for params, sse, y in zip(batch.params, batch.sse, ys):
            want, (want_sse,), *_ = np.linalg.lstsq(design, y, rcond=None)
            assert np.linalg.norm(params - want) <= 1e-10 * np.linalg.norm(want)
            assert sse == pytest.approx(want_sse, rel=1e-10)

    def test_bad_shapes_rejected(self):
        x = np.linspace(0.0, 1.0, 10)
        for ys in (np.zeros(10), np.zeros((2, 9)), np.full((2, 10), np.nan)):
            with pytest.raises(ValueError):
                lsq.fit_batch(ModelSpec.polynomial(1), x, ys)
        with pytest.raises(ValueError):
            lsq.fit_batch(ModelSpec.polynomial(1), [0.0, float("inf")], [[1.0, 2.0]])


class TestFitDispatch:
    def test_routes_by_family(self):
        x = np.linspace(0.0, 1.0, 100)
        poly = lsq.fit_batch(ModelSpec.polynomial(1), x, (3.0 * x + 1.0)[None])
        np.testing.assert_allclose(poly.params[0], [3.0, 1.0], atol=1e-10)
        sine = lsq.fit_batch(ModelSpec.sinusoid(), x, np.sin(x)[None])
        np.testing.assert_allclose(sine.params[0], [1.0, 1.0, 0.0, 0.0], atol=1e-6)

