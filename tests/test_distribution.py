"""Distribution module: density, moments, samplers, standardization."""

import math
import warnings

import numpy as np
import pytest
from scipy.integrate import quad

import stretchfit.distribution as distribution
from stretchfit import (
    DegenerateScaleError,
    SamplerFailureError,
    StretchedGaussian,
    absolute_moment,
    normalization_constant,
    pdf,
    sample_exact,
    sample_rejection,
    standardize,
)

from kstools import ks_crit_two_sample, ks_two_sample


def law_with_scale(beta: float, c: float, alpha: float = 1.0) -> StretchedGaussian:
    """Build a law whose derived scale 4*D*t**alpha equals c."""
    return StretchedGaussian(alpha=alpha, beta=beta, diffusivity=c / 4.0, time=1.0)


def per_trial_noise(law: StretchedGaussian, rng: np.random.Generator, n: int):
    """The rejection sampler written out plainly, kept as its oracle.

    Squeeze rejection at shape a (a + 1 below one), the boost, signs and
    scale, then standardization of the vector.  Returns the raw draws, the
    standardized draws and the proposal count.
    """
    a = law.gamma_shape
    shape = a if a >= 1.0 else a + 1.0
    d = shape - 1.0 / 3.0
    c = 1.0 / math.sqrt(9.0 * d)
    g = np.empty(n)
    filled = proposals = 0
    while filled < n:
        m = n - filled
        z = rng.standard_normal(m)
        u = rng.random(m)
        v = (1.0 + c * z) ** 3
        positive = v > 0.0
        accept = positive & (u < 1.0 - 0.0331 * z**4)
        slow = positive & ~accept
        if np.any(slow):
            zs, vs = z[slow], v[slow]
            accept[slow] = np.log(u[slow]) < 0.5 * zs**2 + d * (1.0 - vs + np.log(vs))
        k = int(np.count_nonzero(accept))
        g[filled:filled + k] = d * v[accept]
        filled += k
        proposals += m
    if a < 1.0:
        g = g * rng.random(n) ** (1.0 / a)
    signs = rng.integers(0, 2, n) * 2 - 1
    raw = signs * (law.scale * g) ** (1.0 / (2.0 * law.beta))
    return raw, (raw - raw.mean()) / raw.std(ddof=1), proposals


def streams(size, seed=3):
    """Generators of the streams (seed, 0), ..., (seed, size - 1)."""
    return [np.random.default_rng([seed, i]) for i in range(size)]


def kernel_quad(beta: float, c: float, weight=lambda x: 1.0) -> float:
    """Adaptive quadrature of weight(x) * exp(-|x|^(2 beta)/c) over the line.

    Uses evenness (the weights here are all even) so the cusp at 0 sits on
    the integration boundary, where the adaptive rule handles it cleanly.
    """
    cut = (c * math.log(1e16)) ** (1.0 / (2.0 * beta)) * 3.0
    val, err = quad(
        lambda x: weight(x) * math.exp(-x ** (2.0 * beta) / c),
        0.0, cut, epsabs=1e-13, epsrel=1e-13, limit=900,
    )
    assert err < 1e-11 * max(1.0, abs(val))
    return 2.0 * val


class TestConstruction:
    @pytest.mark.parametrize("kwargs", [
        dict(alpha=0.0, beta=1.0, diffusivity=0.25, time=1.0),
        dict(alpha=1.2, beta=1.0, diffusivity=0.25, time=1.0),
        dict(alpha=1.0, beta=0.0, diffusivity=0.25, time=1.0),
        dict(alpha=1.0, beta=1.5, diffusivity=0.25, time=1.0),
        dict(alpha=1.0, beta=1.0, diffusivity=0.0, time=1.0),
        dict(alpha=1.0, beta=1.0, diffusivity=-1.0, time=1.0),
        dict(alpha=1.0, beta=1.0, diffusivity=0.25, time=0.0),
        dict(alpha=1.0, beta=1.0, diffusivity=0.25, time=float("nan")),
        # The derived scale 4 D t**alpha overflows or underflows, or 1 / (2 beta) overflows.
        dict(alpha=1.0, beta=1.0, diffusivity=1e308, time=10.0),
        dict(alpha=1.0, beta=0.1, diffusivity=1e300, time=1e300),
        dict(alpha=1.0, beta=1.0, diffusivity=5e-324, time=1e-300),
        dict(alpha=1.0, beta=1e-320, diffusivity=0.25, time=1.0),
    ])
    def test_invalid_parameters_rejected(self, kwargs):
        with pytest.raises(ValueError):
            StretchedGaussian(**kwargs)

    def test_scale_is_positive_and_matches_definition(self):
        law = StretchedGaussian(alpha=0.7, beta=0.5, diffusivity=0.3, time=2.0)
        assert law.scale == pytest.approx(4.0 * 0.3 * 2.0**0.7, rel=1e-15)
        assert law.scale > 0.0


class TestPdf:
    def test_gaussian_case_at_origin(self):
        # alpha=1, beta=1, D=0.25, t=1 gives c=1; peak is 1/sqrt(pi).
        law = StretchedGaussian(alpha=1.0, beta=1.0, diffusivity=0.25, time=1.0)
        assert pdf(law, 0.0) == pytest.approx(0.5641895835477563, abs=1e-15)

    def test_even_in_x(self):
        rng = np.random.default_rng(7)
        for beta in (0.4, 0.5, 0.8, 1.0):
            law = law_with_scale(beta, 1.3)
            x = rng.uniform(0.0, 8.0, 50)
            np.testing.assert_allclose(pdf(law, x), pdf(law, -x), rtol=0, atol=0)

    def test_laplace_case_pointwise(self):
        # beta=0.5, c=1 is the unit Laplace law: exp(-|x|)/2.
        law = law_with_scale(0.5, 1.0)
        assert pdf(law, 0.0) == pytest.approx(0.5, abs=1e-15)
        x = np.linspace(-6.0, 6.0, 101)
        np.testing.assert_allclose(pdf(law, x), np.exp(-np.abs(x)) / 2.0, rtol=1e-14)

    def test_non_finite_point_rejected(self):
        law = law_with_scale(1.0, 1.0)
        for bad in (float("nan"), float("inf"), -float("inf")):
            with pytest.raises(ValueError):
                pdf(law, bad)

    @pytest.mark.parametrize("beta", [0.4, 0.5, 0.8, 1.0])
    @pytest.mark.parametrize("c", [0.5, 1.0, 2.0])
    def test_integrates_to_one(self, beta, c):
        law = law_with_scale(beta, c)
        cut = (c * math.log(1e16)) ** (1.0 / (2.0 * beta)) * 3.0
        total, _ = quad(lambda x: pdf(law, x), -cut, cut, points=[0.0], limit=600)
        assert total == pytest.approx(1.0, abs=1e-8)

    def test_gaussian_reduction_pointwise(self):
        # beta=1, alpha=1: density equals the Gaussian of variance 2*D*t.
        law = StretchedGaussian(alpha=1.0, beta=1.0, diffusivity=0.4, time=1.7)
        var = 2.0 * 0.4 * 1.7
        sigma = math.sqrt(var)
        x = np.linspace(-6.0 * sigma, 6.0 * sigma, 1001)
        gauss = np.exp(-(x**2) / (2.0 * var)) / math.sqrt(2.0 * math.pi * var)
        np.testing.assert_allclose(pdf(law, x), gauss, atol=1e-12, rtol=0)


class TestNormalizationConstant:
    def test_gaussian_value(self):
        assert normalization_constant(law_with_scale(1.0, 1.0)) == pytest.approx(
            math.sqrt(math.pi), rel=1e-15)

    def test_laplace_value_against_quadrature(self):
        z = normalization_constant(law_with_scale(0.5, 1.0))
        assert z == pytest.approx(2.0, abs=1e-12)
        assert z == pytest.approx(kernel_quad(0.5, 1.0), abs=1e-10)

    def test_beta_04_against_quadrature(self):
        # Oracle: adaptive quadrature of exp(-|x|**0.8); frozen value below.
        z = normalization_constant(law_with_scale(0.4, 1.0))
        assert z == pytest.approx(2.266006192638693, rel=1e-12)
        assert z == pytest.approx(kernel_quad(0.4, 1.0), abs=1e-10)

    @pytest.mark.parametrize("beta", [0.4, 0.5, 0.8, 1.0])
    @pytest.mark.parametrize("c", [0.5, 1.0, 2.0])
    def test_matches_kernel_quadrature_on_grid(self, beta, c):
        assert normalization_constant(law_with_scale(beta, c)) == pytest.approx(
            kernel_quad(beta, c), abs=1e-10)

    def test_stdlib_gamma_against_reference_table(self):
        # The normalizer leans on the platform gamma; pin its quality against
        # high-precision references.
        table = {
            0.5: 1.77245385090551602730,
            1.0: 1.0,
            1.25: 0.90640247705547707798,
            2.0: 1.0,
        }
        for arg, ref in table.items():
            assert math.gamma(arg) == pytest.approx(ref, rel=1e-13)


class TestAbsoluteMoment:
    def test_gaussian_second_moment(self):
        # c=1 at beta=1 means variance 1/2.
        assert absolute_moment(law_with_scale(1.0, 1.0), 2) == pytest.approx(0.5, rel=1e-14)

    def test_laplace_first_moment_against_quadrature(self):
        m1 = absolute_moment(law_with_scale(0.5, 1.0), 1)
        assert m1 == pytest.approx(1.0, rel=1e-13)
        oracle = kernel_quad(0.5, 1.0, weight=abs) / kernel_quad(0.5, 1.0)
        assert m1 == pytest.approx(oracle, rel=1e-10)

    def test_beta_04_second_moment_against_quadrature(self):
        # Oracle: quadrature of x**2 exp(-|x|**0.8)/Z = Gamma(3.75)/Gamma(1.25).
        m2 = absolute_moment(law_with_scale(0.4, 1.0), 2)
        oracle = kernel_quad(0.4, 1.0, weight=lambda x: x * x) / kernel_quad(0.4, 1.0)
        assert m2 == pytest.approx(oracle, abs=1e-8)
        assert m2 == pytest.approx(4.87971792048571, rel=1e-12)

    def test_zeroth_moment_is_total_mass(self):
        assert absolute_moment(law_with_scale(0.7, 2.0), 0) == 1.0

    def test_negative_order_rejected(self):
        with pytest.raises(ValueError):
            absolute_moment(law_with_scale(1.0, 1.0), -1)


class TestSamplers:
    N = 100_000

    def test_exact_gaussian_reduction_ks(self):
        # beta=1: the law is N(0, c/2); compare against the erf CDF.
        law = law_with_scale(1.0, 1.0)
        xs = np.sort(sample_exact(law, np.random.default_rng(11), self.N))
        sigma = math.sqrt(0.5)
        cdf = 0.5 * (1.0 + np.vectorize(math.erf)(xs / (sigma * math.sqrt(2.0))))
        n = xs.size
        d = max(np.max(np.arange(1, n + 1) / n - cdf), np.max(cdf - np.arange(n) / n))
        assert d < 1.63 / math.sqrt(n)

    @pytest.mark.parametrize("beta", [0.4, 0.5, 0.8, 1.0])
    def test_exact_sampler_is_centered(self, beta):
        law = law_with_scale(beta, 1.0)
        s = sample_exact(law, np.random.default_rng(13), self.N)
        sigma = math.sqrt(absolute_moment(law, 2))
        assert abs(s.mean()) < 4.0 * sigma / math.sqrt(self.N)

    def test_exact_sampler_matches_first_moment(self):
        law = law_with_scale(0.4, 1.0)
        s = sample_exact(law, np.random.default_rng(17), self.N)
        assert np.abs(s).mean() == pytest.approx(absolute_moment(law, 1), rel=0.02)

    @pytest.mark.parametrize("beta", [0.4, 0.5, 0.8, 1.0])
    def test_rejection_matches_exact_two_sample_ks(self, beta):
        law = law_with_scale(beta, 1.0)
        a = sample_exact(law, np.random.default_rng(19), self.N)
        b = sample_rejection(law, np.random.default_rng(23), self.N)
        assert ks_two_sample(a, b) < ks_crit_two_sample(self.N, self.N)

    def test_rejection_acceptance_rate(self):
        law = law_with_scale(0.5, 1.0)
        _, stats = sample_rejection(law, np.random.default_rng(29), self.N, return_stats=True)
        assert stats.proposals >= self.N
        assert stats.acceptance_rate >= 0.2

    def test_rejection_moments(self):
        for beta in (0.4, 0.8):
            law = law_with_scale(beta, 1.0)
            s = sample_rejection(law, np.random.default_rng(31), self.N)
            assert np.abs(s).mean() == pytest.approx(absolute_moment(law, 1), rel=0.02)
            assert (s**2).mean() == pytest.approx(absolute_moment(law, 2), rel=0.02)

    @pytest.mark.parametrize("draw", [sample_exact, sample_rejection])
    def test_count_contract(self, draw):
        law = law_with_scale(0.8, 1.0)
        with pytest.raises(ValueError):
            draw(law, np.random.default_rng(0), 0)
        out = draw(law, np.random.default_rng(0), 1)
        assert out.shape == (1,) and np.isfinite(out).all()

    @pytest.mark.parametrize("draw", [sample_exact, sample_rejection])
    def test_overflowing_variates_rejected(self, draw):
        # At beta 0.001 the variates (c g)**(1 / (2 beta)) of Gamma draws g overflow.
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            with pytest.raises(ValueError, match=r"beta = 0\.001 is too small"):
                draw(law_with_scale(0.001, 1.0), np.random.default_rng(0), 5)

    def test_exact_sampler_deterministic_per_seed(self):
        law = law_with_scale(0.4, 2.0)
        a = sample_exact(law, np.random.default_rng(5), 100)
        b = sample_exact(law, np.random.default_rng(5), 100)
        np.testing.assert_array_equal(a, b)


class TestBatchedRejection:
    """The rejection sampler over many streams, each drawn alone."""

    N = 200

    @pytest.mark.parametrize("size", [1, 2, 7, 250])
    @pytest.mark.parametrize("beta", [0.3, 0.4, 0.8, 1.0])
    def test_rows_bit_equal_to_per_trial_oracle(self, beta, size):
        law = law_with_scale(beta, 1.0)
        expected = [per_trial_noise(law, rng, self.N) for rng in streams(size)]
        # Some stream's first round rejected a proposal, so a later round refilled it.
        assert any(proposals > self.N for _, _, proposals in expected)
        for rng, (raw, std, proposals) in zip(streams(size), expected):
            row, stats = sample_rejection(law, rng, self.N, return_stats=True)
            assert row.shape == (self.N,)
            assert row.tobytes() == raw.tobytes()
            assert standardize(row).tobytes() == std.tobytes()
            assert (stats.proposals, stats.accepted) == (proposals, self.N)

    @pytest.mark.parametrize("beta", [0.4, 0.8])
    def test_single_generator_is_a_batch_of_one(self, beta):
        law = law_with_scale(beta, 2.0)
        single, stats = sample_rejection(law, np.random.default_rng(8), 50, return_stats=True)
        raw, _, proposals = per_trial_noise(law, np.random.default_rng(8), 50)
        assert single.shape == (50,)
        assert single.tobytes() == raw.tobytes()
        assert (stats.proposals, stats.accepted) == (proposals, 50)

    def test_batch_over_the_round_cap_raises_once(self, monkeypatch):
        # Stream (3, 0) needs a second round at beta 0.4.
        monkeypatch.setattr(distribution, "REJECTION_PROPOSAL_CAP", 1)
        with pytest.raises(SamplerFailureError, match="after 1 proposal rounds"):
            sample_rejection(law_with_scale(0.4, 1.0), streams(1)[0], self.N)


class TestBatchedExact:
    """The Gamma-transform sampler, one row per generator of a batch."""

    N = 200

    @pytest.mark.parametrize("beta", [0.3, 0.8, 1.0])
    def test_rows_bit_equal_to_single_draws(self, beta):
        # An odd n leaves the last sign word's bit 63 unused.
        law = law_with_scale(beta, 2.0)
        for n in (self.N, self.N + 1):
            batch = sample_exact(law, streams(7), n)
            assert batch.shape == (7, n)
            for row, rng in zip(batch, streams(7)):
                assert row.tobytes() == sample_exact(law, rng, n).tobytes()

    @pytest.mark.parametrize("n", [1, 200, 201])
    def test_same_draws_as_gamma_with_integer_signs(self, n):
        law = law_with_scale(0.6, 2.0)
        rng = np.random.default_rng(67)
        g = rng.gamma(law.gamma_shape, 1.0, n)
        expected = (rng.integers(0, 2, n) * 2 - 1) * (law.scale * g) ** (1.0 / (2.0 * law.beta))
        assert sample_exact(law, np.random.default_rng(67), n).tobytes() == expected.tobytes()

    @pytest.mark.parametrize("n", [1, 2, 3, 200, 201])
    def test_sign_words_give_the_bits_of_integers(self, n):
        # Both samplers sign from raw words: bit 31, then bit 63, of each.
        # These must be the bits integers(0, 2, n) returns at the same point
        # of a stream that has drawn normals and uniforms before.
        a, b = np.random.default_rng(61), np.random.default_rng(61)
        for rng in (a, b):
            rng.standard_normal(5)
            rng.random(3)
        unit = law_with_scale(0.5, 1.0)  # maps a unit Gamma draw to magnitude 1
        signs = distribution._attach_sign_and_scale(unit, np.ones(n),
                                                    distribution._sign_words(a, n))
        assert signs.tobytes() == (b.integers(0, 2, n) * 2 - 1.0).tobytes()

    def test_32_bit_generator_rejected(self):
        rng = np.random.Generator(np.random.MT19937(0))
        with pytest.raises(TypeError, match="MT19937"):
            sample_exact(law_with_scale(0.5, 1.0), rng, 10)

    def test_empty_batch_rejected(self):
        with pytest.raises(ValueError):
            sample_exact(law_with_scale(0.4, 1.0), [], self.N)


class TestStandardize:
    def test_two_point_case(self):
        # mean 2, sample (n-1) standard deviation sqrt(2).
        out = standardize([1.0, 3.0])
        np.testing.assert_allclose(out, [-0.7071067811865475, 0.7071067811865475], atol=1e-15)

    def test_postconditions(self):
        rng = np.random.default_rng(37)
        v = rng.gamma(2.0, 1.0, 501)
        out = standardize(v)
        assert abs(out.mean()) < 1e-12
        assert abs(out.std(ddof=1) - 1.0) < 1e-12

    def test_idempotent(self):
        rng = np.random.default_rng(41)
        v = rng.normal(3.0, 5.0, 400)
        once = standardize(v)
        np.testing.assert_allclose(standardize(once), once, atol=1e-12)

    def test_constant_input_rejected(self):
        with pytest.raises(DegenerateScaleError):
            standardize([5.0, 5.0, 5.0])

    def test_short_input_rejected(self):
        with pytest.raises(ValueError):
            standardize([1.0])
        with pytest.raises(ValueError):
            standardize([[1.0], [2.0]])

    def test_rows_standardized_one_by_one(self):
        rows = np.random.default_rng(43).gamma(2.0, 1.0, (5, 301))
        out = standardize(rows)
        for row, got in zip(rows, out):
            assert got.tobytes() == standardize(row).tobytes()

    def test_overflow_rejected(self):
        # Squares of samples near 1e200 overflow; numpy would warn and return sd = inf.
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            with pytest.raises(ValueError, match="standardization overflows"):
                standardize([1e200, -2e200, 3e211])

    def test_constant_row_rejected(self):
        rows = np.random.default_rng(47).normal(size=(4, 10))
        rows[2] = 7.0
        with pytest.raises(DegenerateScaleError):
            standardize(rows)
