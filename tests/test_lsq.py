"""Model evaluation, the linear solver, and the variable-projection sinusoid solver."""

import math
import operator
from fractions import Fraction

import numpy as np
import pytest
import scipy.linalg
import scipy.optimize

import stretchfit.lsq as lsq
from stretchfit import (
    ModelSpec,
    SingularFitError,
    fit_batch,
    predict,
    stretched_fit_batch,
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
    return bs, qr_profile(bs, x, y)


def qr_profile(bs, x, y):
    """The exact SSE profile of a*sin(bx+c)+d at the frequencies ``bs``, by batched QR."""
    arg = np.multiply.outer(bs, x)
    q, _ = np.linalg.qr(np.stack([np.sin(arg), np.cos(arg), np.ones_like(arg)], axis=-1))
    resid = y - np.einsum("kij,kj->ki", q, np.einsum("kij,i->kj", q, y))
    return np.einsum("ki,ki->k", resid, resid)


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


def lstsq_sse(b, x, y):
    """SSE of the least squares fit of A sin(bx) + B cos(bx) + d, by np.linalg.lstsq."""
    design = np.column_stack([np.sin(b * x), np.cos(b * x), np.ones_like(x)])
    coef, *_ = np.linalg.lstsq(design, y, rcond=None)
    r = design @ coef - y
    return float(r @ r)


def exact_sse(b, x, y):
    """The same least squares SSE on the rounded columns, in exact rational arithmetic.

    It is det(Gram of sin, cos, 1, y) / det(Gram of sin, cos, 1); the columns
    must be linearly independent.
    """
    cols = [[Fraction(v) for v in col.tolist()]
            for col in (np.sin(b * x), np.cos(b * x), np.ones_like(x), y)]
    gram = [[sum(map(operator.mul, u, v)) for v in cols] for u in cols]

    def det(m):
        m, out = [row[:] for row in m], Fraction(1)
        for k in range(len(m)):
            pivot = next(i for i in range(k, len(m)) if m[i][k])
            if pivot != k:
                m[k], m[pivot], out = m[pivot], m[k], -out
            out *= m[k][k]
            for i in range(k + 1, len(m)):
                f = m[i][k] / m[k][k]
                m[i] = [a - f * c for a, c in zip(m[i], m[k])]
        return out

    return float(det(gram) / det([row[:3] for row in gram[:3]]))


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
        np.testing.assert_allclose(predict(result.model, result.params, x)[0], y, atol=1e-8)

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

    def test_parameter_contract_on_every_stage(self):
        # Truths of either sign, every phase and frequencies from far below
        # the search domain to above it, so that each stage has boundary rows.
        rng = np.random.default_rng(29)
        x = np.linspace(0.0, 1.0, 200)
        truths = np.column_stack([rng.uniform(-2.0, 2.0, 60), np.geomspace(0.1, 40.0, 60),
                                  rng.uniform(-math.pi, math.pi, 60), rng.uniform(-1.0, 1.0, 60)])
        ys = predict(ModelSpec.sinusoid(), truths, x) + rng.normal(0.0, 0.3, (60, x.size))
        plain = fit_batch(ModelSpec.sinusoid(), x, ys)
        stages = (plain, *stretched_fit_batch(ModelSpec.sinusoid(), x, ys, 0.4))
        assert np.any(truths[:, 0] < 0.0)
        for stage in stages:
            assert lsq.BOUNDARY in stage.stop_reasons
            a, b, c, _ = stage.params.T
            assert np.all(b > 0.0) and np.all(a >= 0.0)
            assert np.all((-math.pi < c) & (c <= math.pi))

    def test_negative_zero_cosine_amplitude_gives_phase_pi(self, monkeypatch):
        # atan2(-0.0, -1.0) is -pi, outside (-pi, pi]; the fit must report pi.
        # The solve returns A = -1, B = -0.0, zero column means and a zero
        # residual; the ordinates' mean is exactly 0, so d = 0.0.
        def centered_fit(sin, cos, yc):
            return -1.0, -0.0, (0.0, 0.0), np.zeros_like(yc)
        monkeypatch.setattr(lsq, "_centered_fit", centered_fit)
        x = np.linspace(0.0, 1.0, 50)
        result = fit_batch(ModelSpec.sinusoid(), x, np.tile([1.0, -1.0], 25)[None])
        a, b, c, d = result.params[0]
        assert (a, c, d) == (1.0, math.pi, 0.0)
        assert b > 0.0

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
        # 160 frequencies 2*pi * k / 20 in span units: up to 8 periods over
        # the span, fixed by the number of distinct abscissas alone, below 18
        # of them by Nyquist.
        grid = lsq._frequency_grid(100)
        assert grid.size == 160
        assert grid[0] == 2.0 * math.pi / 20
        np.testing.assert_allclose(grid, 2.0 * math.pi / 20 * np.arange(1, 161), rtol=1e-15)
        np.testing.assert_allclose(grid[-1], 8 * 2.0 * math.pi, rtol=1e-15)
        for n, size in [(4, 29), (9, 79), (17, 159), (18, 160)]:
            small = lsq._frequency_grid(n)
            np.testing.assert_array_equal(small, grid[:size])
            assert small[-1] < math.pi * (n - 1)

    def test_too_few_points_rejected(self):
        with pytest.raises(ValueError):
            fit_batch(ModelSpec.sinusoid(), [0.0, 1.0, 2.0], [[0.1, 0.2, 0.3]])

    @pytest.mark.parametrize("span", [1e-310, 1e-307])
    def test_too_short_span_rejected(self, span):
        # The last grid frequency, 16*pi / span in x, overflows below about
        # 2.8e-307; it made the fit loop on an infinite bracket or report an
        # overflow of the data.
        x = np.linspace(0.0, span, 200)
        with pytest.raises(ValueError, match=f"abscissa span {span!r} is too short"):
            fit_batch(ModelSpec.sinusoid(), x, [np.sin(np.arange(200.0))])

    def test_shortest_span_fits(self):
        x = np.linspace(0.0, 5e-307, 200)
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
        inside = lsq._linear_at(lsq._frequency_grid(x.size)[-2], x, y)[1]
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
        # The secant from the grid point needs a few slope evaluations; a
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

    def test_repeated_abscissas_reach_the_optimum(self):
        # Integer levels with replicates: on integers sin(bx) is rounding
        # noise at b = k*pi, and a scan that divides by a determinant of
        # that noise ranks such a frequency first.  Every fit not flagged
        # boundary must come within 1e-6 of TSS of the exact profile below
        # the levels' Nyquist frequency, pi.
        rng = np.random.default_rng(5)
        bs = np.linspace(0.02, math.pi - 0.02, 3000)
        for _ in range(100):
            levels, replicates = int(rng.integers(5, 13)), int(rng.integers(2, 6))
            x = np.repeat(np.arange(levels, dtype=float), replicates)
            b, c, sigma = rng.uniform(0.2, 3.0), rng.uniform(-3.0, 3.0), rng.uniform(0.05, 0.8)
            y = np.sin(b * x + c) + rng.normal(0.0, sigma, x.size)
            result = fit_batch(ModelSpec.sinusoid(), x, y[None])
            if result.stop_reasons[0] == "boundary":
                continue
            tss = float(np.sum((y - y.mean()) ** 2))
            assert result.sse[0] <= qr_profile(bs, x, y).min() + 1e-6 * tss
            assert result.params[0, 1] < math.pi

    def test_replicates_end_on_the_lower_edge(self):
        # Five integer levels, four rows each, whose optimum is the b -> 0
        # limit.  Its exact alias at b = 2*pi lies above the levels' Nyquist
        # frequency and outside the grid, so the limit is not left to a tie.
        i = np.arange(20)
        x = (i // 4).astype(float)
        y = np.sin(0.5 * x + 2.0) + 0.3 * np.sin(7.3 * i)
        result = fit_batch(ModelSpec.sinusoid(), x, y[None])
        assert result.stop_reasons[0] == "boundary"
        assert result.params[0, 1] == 2.0 * math.pi / 20 / 4
        quad = np.polyval(np.polyfit(x, y, 2), x) - y
        tss = float(np.sum((y - y.mean()) ** 2))
        assert quad @ quad <= result.sse[0] <= 0.1 * tss

    @pytest.mark.parametrize("levels", [2, 3])
    def test_flat_profile_is_not_flagged(self, levels):
        # On two or three distinct abscissas every frequency of the domain
        # fits the group means, so no end of it is preferred: each fit stops
        # on tolerance with the within-group SSE, whatever rounding ranks first.
        rng = np.random.default_rng(11)
        for _ in range(200):
            scale, replicates = rng.choice([1.0, 3.0, 0.1]), int(rng.integers(2, 6))
            x = scale * np.repeat(np.arange(float(levels)), replicates)
            y = rng.normal(0.0, 1.0, x.size)
            result = fit_batch(ModelSpec.sinusoid(), x, y[None])
            within = sum(float(np.sum((y[x == v] - y[x == v].mean()) ** 2)) for v in np.unique(x))
            assert result.stop_reasons[0] == "tolerance"
            assert result.sse[0] == pytest.approx(within, rel=1e-12)


class TestSinusoidInvariance:
    """Metamorphic relations of the sinusoid fit (Chen, Cheung & Yiu 1998).

    Scaling x by s divides b by s; shifting x by h moves c by -b*h; a
    permutation of the points changes nothing; scaling y scales a, d and the
    root SSE.  The search runs in span units, so each transformed fit must
    keep the stop reason and agree with the unit fit to 1e-12 relative, the
    phase to 1e-12 * pi (an angle has no relative scale near 0).
    """

    TOL = 1e-12

    @staticmethod
    def unit_data():
        # A noisy sin(x) whose fit stops at b -> 0, as in
        # test_boundary_optimum_is_flagged, and two interior optima.
        x = np.linspace(0.0, 1.0, 200)
        noise = np.random.default_rng(0).normal(0.0, 0.3, (3, x.size))
        ys = noise + np.stack([np.sin(x),
                               1.5 * np.sin(2.0 * math.pi * 3.0 * x + 0.7) + 0.5,
                               0.8 * np.sin(2.0 * math.pi * 5.3 * x - 2.0) - 1.2])
        return x, ys

    @pytest.mark.parametrize("kind, factor", [
        ("scale_x", 2.0**40), ("scale_x", 2.0**-40), ("scale_x", 1e-100), ("scale_x", 1e6),
        ("scale_x", 1e80), ("scale_x", 5e299), ("scale_x", 1e307), ("scale_x", 1.7e308),
        ("shift_x", 3.0), ("permute", None), ("scale_y", 2.0**20),
    ], ids=["x2**40", "x2**-40", "x1e-100", "x1e6", "x1e80", "x5e299", "x1e307", "x1.7e308",
            "shift3spans", "permute", "y2**20"])
    def test_transformed_fit_agrees(self, kind, factor):
        x, ys = self.unit_data()
        unit = fit_batch(ModelSpec.sinusoid(), x, ys)
        assert unit.stop_reasons == ("boundary", "tolerance", "tolerance")
        a, b, c, d = unit.params.T.copy()
        sse = unit.sse.copy()
        if kind == "scale_x":
            x, b = factor * x, b / factor
        elif kind == "shift_x":
            h = factor * (x.max() - x.min())
            x, c = x + h, c - b * h
        elif kind == "permute":
            order = np.random.default_rng(1).permutation(x.size)
            x, ys = x[order], ys[:, order]
        else:
            ys, a, d, sse = factor * ys, factor * a, factor * d, factor**2 * sse
        moved = fit_batch(ModelSpec.sinusoid(), x, ys)
        assert moved.stop_reasons == unit.stop_reasons
        a2, b2, c2, d2 = moved.params.T
        for got, want in [(a2, a), (b2, b), (d2, d), (moved.sse, sse)]:
            np.testing.assert_allclose(got, want, rtol=self.TOL, atol=0.0)
        turn = np.angle(np.exp(1j * (c2 - c)))
        assert np.max(np.abs(turn)) <= self.TOL * math.pi


class TestLinearSolve:
    """The closed-form solve at a fixed frequency gives the least SSE, as lstsq does."""

    ABSCISSAS = {
        "unit": np.linspace(0.0, 1.0, 200),
        "xx": np.linspace(0.0, 1.0, 200) + np.linspace(0.0, 1.0, 200) ** 0.4,
        "shifted": np.linspace(1000.0, 1001.0, 200),
        "long": np.linspace(0.0, 20.0, 5000),
        # Two and three distinct values: the centered sin and cos columns are
        # parallel, and the rank rule must drop what is left of one of them.
        "two_values": np.array([0.0, 0.0, 0.0, 1.0, 1.0, 1.0]),
        "three_values": np.array([0.0, 0.0, 1.0, 1.0, 2.0, 2.0]),
    }

    @staticmethod
    def frequencies(x, rng):
        """The scan's grid and 40 random frequencies below its top, in units of b."""
        grid = lsq._frequency_grid(np.unique(x).size)
        return np.concatenate([grid, rng.uniform(0.0, grid[-1], 40)]) / (x.max() - x.min())

    @pytest.mark.parametrize("name", list(ABSCISSAS))
    def test_sse_matches_lstsq(self, name):
        x = self.ABSCISSAS[name]
        rng = np.random.default_rng(61)
        for _ in range(3):
            y = np.sin(3.0 * x) + rng.normal(0.0, 0.5, x.size)
            tss = float(np.sum((y - y.mean()) ** 2))
            for b in self.frequencies(x, rng):
                params, sse = lsq._linear_at(b, x, y)
                assert abs(sse - lstsq_sse(b, x, y)) <= 1e-12 * tss, b
                assert params[0] >= 0.0 and -math.pi < params[2] <= math.pi

    def test_tight_clusters_match_exact_sse(self):
        # Two clusters 1e-6 wide: sin and cos are nearly parallel after
        # centering, and the design's condition number reaches about 1e11 at
        # b = 2*pi*k.  There lstsq is no reference: here it is off the exact
        # SSE of the rounded columns by up to 8.7e-8 of tss, the closed form
        # by up to 4.7e-12.
        x = np.concatenate([np.linspace(0.0, 1e-6, 10), np.linspace(1.0, 1.0 + 1e-6, 10)])
        rng = np.random.default_rng(67)
        for _ in range(2):
            y = np.sin(3.0 * x) + rng.normal(0.0, 0.5, x.size)
            tss = float(np.sum((y - y.mean()) ** 2))
            for b in self.frequencies(x, rng):
                assert abs(lsq._linear_at(b, x, y)[1] - exact_sse(b, x, y)) <= 1e-10 * tss, b


class TestProfileKernels:
    """The closed-form profile and its slope, the scan tables and their cache."""

    @staticmethod
    def abscissas():
        x = np.linspace(0.0, 1.0, 200)
        return {"x": x, "xx": x + x**0.4, "shifted": np.linspace(1000.0, 1001.0, 200)}

    @pytest.mark.parametrize("name", ["x", "xx", "shifted", "two_values", "three_values", "long"])
    def test_closed_form_matches_exact_profile(self, name):
        # On two and three distinct values the scan must drop what rounding
        # leaves of a parallel column, by the solve's rank rule; long data
        # are scanned in several blocks.
        x = {**self.abscissas(), **TestLinearSolve.ABSCISSAS}[name]
        rng = np.random.default_rng(43)
        y = np.sin(x - x[0]) + rng.normal(0.0, 0.3, x.size)
        yc = y - y.mean()
        tss = float(yc @ yc)
        span = x[-1] - x[0]
        grid = lsq._frequency_grid(np.unique(x).size)
        exact = np.array([lstsq_sse(w / span, x, y) for w in grid])
        scan = lsq._grid_profiles((x - x.min()) / span, [yc])[0]
        assert np.max(np.abs(scan - exact)) <= 1e-12 * tss

    @pytest.mark.parametrize("name", ["x", "xx", "shifted"])
    def test_derivatives_match_central_differences(self, name):
        # f' of the closed form in span units, turned into units of b,
        # against central differences of the exact profile, scaled by the
        # units of tss * span.
        x = self.abscissas()[name]
        rng = np.random.default_rng(59)
        y = np.sin(3.0 * (x - x[0])) + rng.normal(0.0, 0.3, x.size)
        yc = y - y.mean()
        tss = float(yc @ yc)
        span = x[-1] - x[0]

        def exact(b):
            return lstsq_sse(b, x, y)

        t = (x - x.min()) / span
        for w in lsq._frequency_grid(x.size)[::7]:
            slope = lsq._profile_slope(w, t, yc) * span
            b, h = w / span, 1e-4 / span
            assert slope == pytest.approx((exact(b + h) - exact(b - h)) / (2 * h),
                                          abs=1e-8 * tss * span)

    def test_warm_scan_equals_cold(self):
        rng = np.random.default_rng(47)
        for x in self.abscissas().values():
            y = rng.normal(0.0, 1.0, x.size)
            yc = y - y.mean()
            lsq._scan_table.cache_clear()
            cold = lsq._grid_profiles(x, [yc])[0]
            warm = lsq._grid_profiles(x.copy(), [yc])[0]
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
                assert single.fitted[0].tobytes() == batch.fitted[i].tobytes()
            assert batch.fitted.tobytes() == predict(batch.model, batch.params, x).tobytes()
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
        assert batch.fitted.shape == (0, x.size)

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

