"""Noisy data generation, error metrics, trials, and the Monte Carlo loop."""

import itertools
import math

import numpy as np
import pytest

import stretchfit.distribution as distribution
import stretchfit.experiment as experiment
import stretchfit.lsq as lsq
from stretchfit import (
    SingularFitError,
    grid_config,
    error1,
    error2,
    make_noisy_dataset,
    run_monte_carlo,
    run_trial,
)
from stretchfit.experiment import ERROR_COLUMNS, TIE_RTOL, trial_rng


def poly_config(seed=0, beta=0.4, eta=30.0, **kw):
    return grid_config("poly", beta, eta, seed=seed, **kw)


def fit_summaries(report):
    """Parameter bytes and stop reason of every fit of every trial, in order."""
    return [(f.params.tobytes(), f.stop_reason)
            for t in report.trials
            for f in (t.lsm_fit, t.slsm_fit.transition, t.slsm_fit.final)]


class TestMakeNoisyDataset:
    def test_zero_noise_is_exact(self):
        cfg = poly_config(eta=0.0)
        data = make_noisy_dataset(cfg, trial_rng(0, 0))
        np.testing.assert_array_equal(data.y, cfg.truth_function()(data.x))

    def test_grid_spans_domain_inclusive(self):
        cfg = poly_config()
        data = make_noisy_dataset(cfg, trial_rng(0, 0))
        assert data.x[0] == 0.0 and data.x[-1] == 1.0
        assert data.x.size == 200
        np.testing.assert_allclose(np.diff(data.x), np.diff(data.x)[0], rtol=1e-9)

    def test_noise_is_standardized_to_eta_scale(self):
        for eta in (30.0, 50.0):
            cfg = poly_config(eta=eta)
            data = make_noisy_dataset(cfg, trial_rng(1, 0))
            noise = data.y - (data.x**2 + data.x + 2.0)
            assert abs(noise.mean()) < 1e-12
            assert abs(noise.std(ddof=1) - eta / 100.0) < 1e-12

    def test_same_seed_bit_identical(self):
        cfg = poly_config(seed=5)
        a = make_noisy_dataset(cfg, trial_rng(5, 3))
        b = make_noisy_dataset(cfg, trial_rng(5, 3))
        assert a.y.tobytes() == b.y.tobytes()

    def test_different_seeds_differ(self):
        cfg = poly_config()
        for k in range(100):
            a = make_noisy_dataset(cfg, trial_rng(k, 0))
            b = make_noisy_dataset(cfg, trial_rng(k + 1, 0))
            assert not np.array_equal(a.y, b.y)


class TestErrorMetrics:
    def test_zero_for_identical_curves(self):
        f = lambda x: x**2 + x + 2.0
        x = np.linspace(0.0, 1.0, 50)
        assert error1(f, f, x) == 0.0
        assert error2(f, f, x) == 0.0

    def test_hand_computed_vectors(self):
        x = np.array([0.0, 1.0, 2.0])
        diffs = np.array([0.1, -0.3, 0.2])
        fitted = lambda xs: np.interp(xs, x, diffs)
        truth = lambda xs: np.zeros_like(xs)
        assert error1(fitted, truth, x) == pytest.approx(0.3, abs=1e-12)
        assert error2(fitted, truth, x) == pytest.approx(0.21602468994692867, abs=1e-12)

    def test_single_point_absolute_value(self):
        assert error1(lambda x: x - 7.0, lambda x: x, [3.0]) == 7.0

    def test_constant_gap_rms_is_gap(self):
        rng = np.random.default_rng(2)
        x = rng.uniform(0.0, 5.0, 40)
        assert error2(lambda v: v + 0.25, lambda v: v, x) == pytest.approx(0.25, rel=1e-12)

    def test_empty_grid_rejected(self):
        with pytest.raises(ValueError):
            error1(lambda x: x, lambda x: x, [])
        with pytest.raises(ValueError):
            error2(lambda x: x, lambda x: x, [])

    def test_rms_never_exceeds_max(self):
        rng = np.random.default_rng(3)
        x = np.linspace(0.0, 1.0, 30)
        for _ in range(25):
            gaps = rng.normal(0.0, 1.0, x.size)
            fitted = lambda xs, g=gaps: np.interp(xs, x, g)
            truth = lambda xs: np.zeros_like(np.asarray(xs))
            assert error2(fitted, truth, x) <= error1(fitted, truth, x) + 1e-15


class TestRunTrial:
    def test_zero_noise_beta_one_recovers_exactly(self):
        cfg = grid_config("poly", 1.0, 0.0, seed=0)
        report = run_trial(cfg)
        assert max(report.errors()) <= 1e-8

    def test_zero_noise_small_beta_reports_floor(self):
        # The two-stage pipeline has a noiseless bias floor for beta < 1;
        # it is reported, not zero.
        cfg = poly_config(eta=0.0)
        report = run_trial(cfg)
        assert report.lsm_error1 <= 1e-8
        assert report.lsm_error2 <= 1e-8
        assert 0.0 < report.slsm_error2 < 5e-3

    def test_seed_recorded(self):
        cfg = poly_config(seed=9)
        report = run_trial(cfg, trial_index=4)
        assert report.seed == (9, 4)

    def test_errors_match_refit_from_stored_fits(self):
        cfg = poly_config(seed=2)
        report = run_trial(cfg, 1)
        data = make_noisy_dataset(cfg, trial_rng(2, 1))
        truth = cfg.truth_function()
        assert report.lsm_error1 == error1(report.lsm_fit.predict, truth, data.x)
        assert report.slsm_error2 == error2(report.slsm_fit.predict, truth, data.x)

    def test_strong_config_beats_plain_fit_in_median(self):
        # Polynomial, beta 0.4, eta 30: the stretched method's median RMS
        # error over 100 seeded trials is below the plain fit's.
        cfg = poly_config(seed=0)
        reports = [run_trial(cfg, i) for i in range(100)]
        slsm = np.median([r.slsm_error2 for r in reports])
        lsm = np.median([r.lsm_error2 for r in reports])
        assert slsm < lsm


class TestRunMonteCarlo:
    def test_single_repetition_degenerate_aggregate(self):
        cfg = poly_config(seed=3)
        report = run_monte_carlo(cfg, repetitions=1)
        trial = report.trials[0]
        expected = 1.0 if trial.slsm_error2 < trial.lsm_error2 else 0.0
        assert report.win_rate_error2 == expected
        assert report.win_rate_error1 in (0.0, 1.0)

    def test_win_rates_recomputable_from_trials(self):
        cfg = poly_config(seed=4)
        report = run_monte_carlo(cfg, repetitions=40)
        wins1 = sum(t.slsm_error1 < t.lsm_error1 for t in report.trials)
        wins2 = sum(t.slsm_error2 < t.lsm_error2 for t in report.trials)
        assert report.win_rate_error1 == wins1 / len(report.trials)
        assert report.win_rate_error2 == wins2 / len(report.trials)

    def test_ties_counted_apart_from_wins(self):
        # At beta = 1 the two methods coincide up to rounding: every trial
        # ties, while the strict win rates still count rounding-level gaps.
        report = run_monte_carlo(grid_config("poly", 1.0, 30.0, seed=0), repetitions=100)
        assert report.ties_error1 == report.ties_error2 == len(report.trials) == 100
        wins2 = sum(t.slsm_error2 < t.lsm_error2 for t in report.trials)
        assert report.win_rate_error2 == wins2 / 100
        assert run_monte_carlo(poly_config(seed=0), repetitions=20).ties_error2 == 0

    @pytest.mark.parametrize("family, seed, counts", [
        ("poly", 6, (1, 7, 100, 250)),
        ("sin", 6, (1, 7, 14)),
    ], ids=["poly", "sin"])
    def test_prefix_stability_when_doubling(self, family, seed, counts):
        # The trials are fitted as one batch: each trial's errors and fits
        # must be the same bits whatever the batch's size.
        cfg = grid_config(family, 0.4, 30.0, seed=seed)
        *shorter, longest = [run_monte_carlo(cfg, repetitions=r) for r in counts]
        for short in shorter:
            for a, b in zip(short.trials, longest.trials):
                assert a.errors() == b.errors()
                assert a.seed == b.seed
            assert fit_summaries(short) == fit_summaries(longest)[:3 * len(short.trials)]

    def test_batch_errors_match_single_trials(self):
        cfg = poly_config(seed=12)
        report = run_monte_carlo(cfg, repetitions=7)
        for t in report.trials:
            single = run_trial(cfg, t.seed[1])
            assert single.errors() == t.errors()
            assert single.slsm_fit.final.params.tobytes() == t.slsm_fit.final.params.tobytes()
            data = make_noisy_dataset(cfg, trial_rng(*t.seed))
            truth = cfg.truth_function()
            assert t.lsm_error1 == error1(t.lsm_fit.predict, truth, data.x)
            assert t.slsm_error2 == error2(t.slsm_fit.predict, truth, data.x)

    def test_scan_cache_does_not_change_sinusoid_report(self):
        cfg = grid_config("sin", 0.8, 50.0, seed=11)
        lsq._scan_table.cache_clear()
        cold = run_monte_carlo(cfg, repetitions=6)
        assert lsq._scan_table.cache_info().currsize == 2  # x and x + x**0.8
        warm = run_monte_carlo(cfg, repetitions=6)
        assert lsq._scan_table.cache_info().hits > 0
        assert [t.errors() for t in cold.trials] == [t.errors() for t in warm.trials]
        assert fit_summaries(cold) == fit_summaries(warm)

    def test_median_and_iqr_match_numpy(self):
        cfg = poly_config(seed=8)
        report = run_monte_carlo(cfg, repetitions=30)
        for j, name in enumerate(ERROR_COLUMNS):
            col = np.array([t.errors()[j] for t in report.trials])
            assert report.medians[name] == float(np.median(col))
            q25, q75 = np.percentile(col, [25, 75])
            assert report.iqrs[name] == float(q75 - q25)
        for metric in ("error1", "error2"):
            pairs = [(getattr(t, f"lsm_{metric}"), getattr(t, f"slsm_{metric}"))
                     for t in report.trials]
            wins = sum(slsm < lsm for lsm, slsm in pairs)
            ties = sum(abs(lsm - slsm) <= TIE_RTOL * max(lsm, slsm) for lsm, slsm in pairs)
            assert getattr(report, f"win_rate_{metric}") == wins / len(pairs)
            assert getattr(report, f"ties_{metric}") == ties

    def test_failures_excluded_and_counted(self, monkeypatch):
        # A configuration draws its noise in one sampler call, and its trials
        # share the sampler's envelope, so a draw over the round cap excludes
        # every trial with the sampler's message.
        monkeypatch.setattr(distribution, "REJECTION_PROPOSAL_CAP", 1)
        real = experiment.sample_rejection
        calls = itertools.count()

        def counted(*args, **kwargs):
            next(calls)
            return real(*args, **kwargs)

        monkeypatch.setattr(experiment, "sample_rejection", counted)
        report = run_monte_carlo(poly_config(seed=9), repetitions=12)
        assert next(calls) == 1
        assert report.trials == ()
        assert [i for i, _ in report.failures] == list(range(12))
        messages = {msg for _, msg in report.failures}
        assert len(messages) == 1
        assert messages.pop().startswith("SamplerFailureError: no acceptance after 1 proposal")
        assert (report.win_rate_error1, report.win_rate_error2) == (None, None)
        assert report.medians == report.iqrs == {}

    def test_fit_failure_excludes_every_trial(self, monkeypatch):
        def singular(*args, **kwargs):
            raise SingularFitError("synthetic failure")

        monkeypatch.setattr(experiment, "fit_batch", singular)
        report = run_monte_carlo(poly_config(seed=9), repetitions=5)
        assert report.trials == ()
        assert [i for i, _ in report.failures] == [0, 1, 2, 3, 4]
        assert (report.win_rate_error1, report.win_rate_error2) == (None, None)
        assert report.medians == report.iqrs == {}

    def test_zero_noise_outcome_is_deterministic(self):
        cfg = grid_config("poly", 1.0, 0.0, seed=10)
        a = run_monte_carlo(cfg, repetitions=5)
        b = run_monte_carlo(cfg, repetitions=5)
        assert a.win_rate_error1 == b.win_rate_error1
        assert a.win_rate_error2 == b.win_rate_error2

    def test_bad_repetitions_rejected(self):
        with pytest.raises(ValueError):
            run_monte_carlo(poly_config(), repetitions=0)


class TestTrialConfigValidation:
    def test_eta_and_beta_bounds(self):
        with pytest.raises(ValueError):
            poly_config(eta=-1.0)
        with pytest.raises(ValueError):
            grid_config("poly", 1.5, 30.0, seed=0)

    def test_n_below_parameter_count_rejected(self):
        with pytest.raises(ValueError):
            poly_config(n=2)

    def test_negative_domain_rejected(self):
        with pytest.raises(ValueError):
            poly_config(x_domain=(-1.0, 1.0))
        with pytest.raises(ValueError):
            poly_config(x_domain=(1.0, 1.0))

    def test_unknown_family_rejected(self):
        with pytest.raises(ValueError):
            grid_config("cubic", 0.4, 30.0, seed=0)


class TestBenchmarkGrid:
    def test_eight_configs_with_distinct_seeds(self):
        grid = experiment.benchmark_grid(100)
        assert len(grid) == 8
        tokens = [token for token, _ in grid]
        assert len(set(tokens)) == 8
        seeds = [cfg.seed for _, cfg in grid]
        assert seeds == list(range(100, 108))

    def test_tokens_follow_grammar(self):
        for token, cfg in experiment.benchmark_grid(0):
            family, b, e = token.split(":")
            assert family in ("poly", "sin")
            assert math.isclose(float(b[1:]), cfg.beta)
            assert math.isclose(float(e[1:]), cfg.eta)
