"""Fractal-metric operators: distances, stretched integral and derivative."""

import math
import re
import warnings

import numpy as np
import pytest
from scipy.integrate import quad

from stretchfit import (
    FractalAxis,
    fractal_distance,
    hausdorff_derivative,
    hausdorff_integral,
    reset_horizontal,
)


class TestFractalAxis:
    @pytest.mark.parametrize("exponent", [0.0, -0.3, 1.01, float("nan")])
    def test_invalid_exponent_rejected(self, exponent):
        with pytest.raises(ValueError):
            FractalAxis(exponent=exponent)


class TestFractalDistance:
    def test_classical_case(self):
        assert fractal_distance(FractalAxis(1.0, 0.0), 3.0) == 3.0

    def test_square_root_case(self):
        assert fractal_distance(FractalAxis(0.5, 0.0), 4.0) == 2.0

    def test_shifted_origin(self):
        # 0.5**0.4, cross-checked as exp(0.4 * ln 0.5).
        got = fractal_distance(FractalAxis(0.4, 1.0), 1.5)
        assert got == pytest.approx(math.exp(0.4 * math.log(0.5)), rel=1e-15)
        assert got == pytest.approx(0.7578582832551991, rel=1e-15)

    @pytest.mark.parametrize("exponent", [0.3, 0.5, 1.0])
    def test_fixed_points(self, exponent):
        assert fractal_distance(FractalAxis(exponent), 0.0) == 0.0
        assert fractal_distance(FractalAxis(exponent), 1.0) == 1.0

    @pytest.mark.parametrize("origin,point,named", [
        (1.0, 0.5, 0.5),
        (0.0, -0.1, -0.1),
        (1.0, np.array([[1.5, 0.25], [-3.0, 2.0]]), 0.25),  # the first in C order
    ], ids=["scalar", "negative", "array"])
    def test_point_before_origin_rejected(self, origin, point, named):
        with pytest.raises(ValueError, match=re.escape(
                f"point {named} lies before the axis origin {origin}")):
            fractal_distance(FractalAxis(0.5, origin), point)

    @pytest.mark.parametrize("point", [4.0, 4, np.float64(4.0), np.array(4.0)],
                             ids=["float", "int", "float64", "0-d"])
    def test_scalar_gives_float(self, point):
        got = fractal_distance(FractalAxis(0.5), point)
        assert type(got) is float
        assert got == 2.0

    @pytest.mark.parametrize("shape", [(0,), (5,), (2, 3)])
    def test_array_keeps_shape(self, shape):
        pts = np.arange(math.prod(shape), dtype=float).reshape(shape) + 0.25
        axis = FractalAxis(0.6, 0.25)
        got = fractal_distance(axis, pts)
        assert got.shape == shape
        np.testing.assert_allclose(
            got.ravel(), [fractal_distance(axis, p) for p in pts.ravel()], rtol=1e-15)

    @pytest.mark.parametrize("point", [1e308, np.array([0.0, 1e308])], ids=["scalar", "array"])
    def test_overflowing_difference_rejected(self, point):
        # 1e308 - (-1e308) overflows: a ValueError naming it, not numpy's warning and inf.
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            with pytest.raises(ValueError, match=re.escape(
                    "distance from the axis origin -1e+308 overflows "
                    "(overflow encountered in subtract)")):
                fractal_distance(FractalAxis(0.5, -1e308), point)

    def test_monotone_in_point(self):
        axis = FractalAxis(0.6, 0.25)
        pts = np.linspace(0.25, 5.0, 40)
        vals = [fractal_distance(axis, p) for p in pts]
        assert all(b > a for a, b in zip(vals, vals[1:]))


class TestHausdorffIntegral:
    def test_unit_velocity(self):
        got = hausdorff_integral(lambda t: 1.0, FractalAxis(0.5, 0.0), 1.0)
        assert got == pytest.approx(1.0, abs=1e-12)

    def test_constant_velocity_matches_distance_formula(self):
        # v0 * (upper - origin)**alpha for constant v0.
        got = hausdorff_integral(lambda t: 3.0, FractalAxis(0.7, 0.0), 2.0)
        assert got == pytest.approx(3.0 * 2.0**0.7, abs=1e-8)
        assert got == pytest.approx(4.873514378137413, abs=1e-8)

    def test_linear_velocity_closed_form(self):
        # int_0^1 t * 0.5 * t**-0.5 dt = 1/3; trapezoid oracle agrees.
        got = hausdorff_integral(lambda t: t, FractalAxis(0.5, 0.0), 1.0)
        assert got == pytest.approx(1.0 / 3.0, abs=1e-10)
        t = np.linspace(1e-12, 1.0, 2_000_001)
        oracle = np.trapezoid(t * 0.5 * t**-0.5, t)
        assert got == pytest.approx(oracle, abs=1e-6)

    @pytest.mark.parametrize("v0,alpha,upper,origin", [
        (2.5, 0.4, 1.5, 0.0),
        (-1.0, 0.9, 3.0, 1.0),
        (0.7, 1.0, 2.0, 0.5),
    ])
    def test_constant_velocity_sweep(self, v0, alpha, upper, origin):
        got = hausdorff_integral(lambda t: v0, FractalAxis(alpha, origin), upper)
        assert got == pytest.approx(v0 * (upper - origin) ** alpha, abs=1e-8)

    def test_classical_reduction(self):
        # exponent 1 is the ordinary integral of a smooth function.
        f = lambda t: math.sin(3.0 * t) + t**2
        got = hausdorff_integral(f, FractalAxis(1.0, 0.0), 2.0, quadrature_points=128)
        ref, _ = quad(f, 0.0, 2.0)
        assert got == pytest.approx(ref, abs=1e-8)

    def test_singular_weight_handled(self):
        # Smooth v against a strongly singular weight (alpha = 0.3).
        f = lambda t: math.cos(t)
        alpha = 0.3
        got = hausdorff_integral(f, FractalAxis(alpha, 0.0), 1.0, quadrature_points=512)
        ref, _ = quad(lambda t: f(t) * alpha * t ** (alpha - 1.0), 0.0, 1.0,
                      points=[0.0], limit=400)
        assert got == pytest.approx(ref, abs=1e-8)

    def test_upper_at_origin_rejected(self):
        with pytest.raises(ValueError):
            hausdorff_integral(lambda t: 1.0, FractalAxis(0.5, 1.0), 1.0)

    def test_non_finite_integrand_rejected(self):
        with pytest.raises(ValueError):
            hausdorff_integral(lambda t: float("nan"), FractalAxis(0.5, 0.0), 1.0)


class TestHausdorffDerivative:
    def test_classical_identity_function(self):
        got = hausdorff_derivative(lambda t: t, FractalAxis(1.0, 0.0), 2.0)
        assert got == pytest.approx(1.0, abs=1e-9)

    def test_self_derivative_is_one(self):
        # d (t**alpha) / d t**alpha = 1 for every point and step size.
        axis = FractalAxis(0.4, 0.0)
        for step in (1e-4, 1e-5, 1e-6):
            got = hausdorff_derivative(lambda t: t**0.4, axis, 0.7, step=step)
            assert got == pytest.approx(1.0, abs=1e-6)

    @pytest.mark.parametrize("alpha", [0.3, 0.5, 0.8, 1.0])
    @pytest.mark.parametrize("point", [0.2, 0.7, 1.9])
    def test_self_derivative_grid(self, alpha, point):
        axis = FractalAxis(alpha, 0.0)
        got = hausdorff_derivative(lambda t: t**alpha, axis, point)
        assert got == pytest.approx(1.0, abs=1e-6)

    def test_quadratic_against_closed_form(self):
        # (1 / (0.5 * 1**-0.5)) * 2 = 4 at point 1, exponent 0.5.
        axis = FractalAxis(0.5, 0.0)
        got = hausdorff_derivative(lambda t: t * t, axis, 1.0, step=1e-5)
        assert got == pytest.approx(4.0, abs=1e-8)

    def test_classical_reduction_matches_central_difference(self):
        f = lambda t: math.exp(t) * math.sin(t)
        step = 1e-6
        got = hausdorff_derivative(f, FractalAxis(1.0, 0.0), 1.3, step=step)
        central = (f(1.3 + step) - f(1.3 - step)) / (2.0 * step)
        assert got == pytest.approx(central, rel=1e-14)

    def test_point_at_origin_rejected(self):
        with pytest.raises(ValueError):
            hausdorff_derivative(lambda t: t, FractalAxis(0.5, 1.0), 1.0)

    def test_large_step_rejected(self):
        with pytest.raises(ValueError):
            hausdorff_derivative(lambda t: t, FractalAxis(0.5, 0.0), 1.0, step=1.0)


class TestResetHorizontal:
    def test_fixed_points(self):
        for beta in (0.2, 0.4, 0.8, 1.0):
            np.testing.assert_allclose(reset_horizontal([0.0], beta), [0.0])
            np.testing.assert_allclose(reset_horizontal([1.0], beta), [2.0])

    def test_half_point(self):
        got = reset_horizontal([0.5], 0.4)
        assert got[0] == pytest.approx(0.5 + math.exp(0.4 * math.log(0.5)), rel=1e-15)
        assert got[0] == pytest.approx(1.2578582832551991, rel=1e-15)

    def test_classical_reduction_doubles(self):
        x = np.linspace(0.0, 3.0, 17)
        np.testing.assert_allclose(reset_horizontal(x, 1.0), 2.0 * x, rtol=1e-15)

    @pytest.mark.parametrize("beta", [0.1, 0.4, 0.8, 1.0])
    def test_strictly_monotone(self, beta):
        rng = np.random.default_rng(43)
        x = np.sort(rng.uniform(0.0, 10.0, 200))
        x = np.unique(x)
        xx = reset_horizontal(x, beta)
        assert np.all(np.diff(xx) > 0.0)

    def test_preserves_ordering_of_unsorted_input(self):
        x = np.array([0.3, 0.0, 2.0, 1.1])
        xx = reset_horizontal(x, 0.6)
        assert list(np.argsort(xx)) == list(np.argsort(x))

    def test_negative_abscissa_rejected(self):
        with pytest.raises(ValueError):
            reset_horizontal([-0.5, 1.0], 0.4)

    @pytest.mark.parametrize("beta", [1e-300, 0.1, 0.4, 0.8, 1.0])
    @pytest.mark.parametrize("grid", ["linspace", "uniform"])
    def test_bits_equal_direct_power(self, beta, grid):
        x = (np.linspace(0.0, 1.0, 200) if grid == "linspace"
             else np.random.default_rng(7).uniform(0.0, 1.0, 100_000))
        assert reset_horizontal(x, beta).tobytes() == (x + x**beta).tobytes()
