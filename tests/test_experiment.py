"""Noisy data generation, error metrics, trials, and the Monte Carlo loop."""

import dataclasses
import math
import sys

import numpy as np
import pytest

import stretchfit.cli as cli
import stretchfit.experiment as experiment
import stretchfit.lsq as lsq
from stretchfit import (
    SingularFitError,
    fit_batch,
    grid_config,
    error1,
    error2,
    predict,
    run_monte_carlo,
    sample_exact,
    standardize,
    stretched_fit_batch,
)
from stretchfit.experiment import ERROR_COLUMNS, TIE_RTOL, config_token, trial_rng, trial_rngs


def poly_config(seed=0, beta=0.4, eta=30.0, **kw):
    return grid_config("poly", beta, eta, seed=seed, **kw)


def fit_summaries(report):
    """Parameter bytes and stop reason of every fit of every trial, in order."""
    return [(batch.params[k].tobytes(), batch.stop_reasons[k])
            for k in range(len(report.errors))
            for batch in (report.lsm, report.transition, report.final)]


def truth_values(cfg):
    """The Monte Carlo's abscissas and the truth's values there."""
    x = np.linspace(*cfg.x_domain, cfg.n)
    return x, predict(cfg.truth_model, cfg.truth_params, x)


def noisy_ordinates(cfg, rng):
    """One trial's noisy ordinates, drawn alone from ``rng``."""
    return experiment._add_noise(cfg, truth_values(cfg)[1], [rng])[0]


def single_trial(cfg, i):
    """Trial i alone, the per-trial way: its own ordinates, a batch of one per method.

    Returns the four errors in ERROR_COLUMNS order, the plain fit and the
    stretched fit's (transition, final) stages.
    """
    x, truth = truth_values(cfg)
    y = noisy_ordinates(cfg, trial_rng(cfg.seed, i))
    lsm = fit_batch(cfg.truth_model, x, y[None])
    transition, final = stretched_fit_batch(cfg.truth_model, x, y[None], cfg.beta)
    lsm_values, slsm_values = lsm.fitted[0], final.fitted[0]
    errors = (error1(lsm_values, truth), error2(lsm_values, truth),
              error1(slsm_values, truth), error2(slsm_values, truth))
    return tuple(float(e) for e in errors), lsm, (transition, final)


class TestAddNoise:
    def test_zero_noise_is_exact(self):
        cfg = poly_config(eta=0.0)
        y = noisy_ordinates(cfg, trial_rng(0, 0))
        np.testing.assert_array_equal(y, truth_values(cfg)[1])

    def test_grid_spans_domain_inclusive(self, monkeypatch):
        # The abscissas the Monte Carlo fits on.
        seen = []
        monkeypatch.setattr(experiment, "fit_batch",
                            lambda model, x, ys: seen.append(x) or fit_batch(model, x, ys))
        run_monte_carlo(poly_config(), 1)
        x = seen[0]
        assert x[0] == 0.0 and x[-1] == 1.0
        assert x.size == 200
        np.testing.assert_allclose(np.diff(x), np.diff(x)[0], rtol=1e-9)

    def test_noise_is_standardized_to_eta_scale(self):
        for eta in (30.0, 50.0):
            cfg = poly_config(eta=eta)
            x, _ = truth_values(cfg)
            noise = noisy_ordinates(cfg, trial_rng(1, 0)) - (x**2 + x + 2.0)
            assert abs(noise.mean()) < 1e-12
            assert abs(noise.std(ddof=1) - eta / 100.0) < 1e-12

    def test_same_seed_bit_identical(self):
        cfg = poly_config(seed=5)
        a = noisy_ordinates(cfg, trial_rng(5, 3))
        b = noisy_ordinates(cfg, trial_rng(5, 3))
        assert a.tobytes() == b.tobytes()

    def test_different_seeds_differ(self):
        cfg = poly_config()
        for k in range(100):
            a = noisy_ordinates(cfg, trial_rng(k, 0))
            b = noisy_ordinates(cfg, trial_rng(k + 1, 0))
            assert not np.array_equal(a, b)


class TestTrialStreams:
    @pytest.mark.parametrize("count", [1, 2, 257])
    @pytest.mark.parametrize("seed", [0, 1, 2**32 - 1, 2**32, 2**63, 2**64 - 1])
    def test_batch_has_the_states_of_the_one_stream_reference(self, seed, count):
        # Seeds from 2**32 up are two 32-bit words of entropy, the rest one.
        rngs = trial_rngs(seed, count)
        assert len(rngs) == count
        for i, rng in enumerate(rngs):
            assert rng.bit_generator.state == trial_rng(seed, i).bit_generator.state


class TestErrorMetrics:
    def test_zero_for_identical_curves(self):
        x = np.linspace(0.0, 1.0, 50)
        f = x**2 + x + 2.0
        assert error1(f, f) == 0.0
        assert error2(f, f) == 0.0

    def test_hand_computed_vectors(self):
        diffs = np.array([0.1, -0.3, 0.2])
        truth = np.zeros(3)
        assert error1(diffs, truth) == pytest.approx(0.3, abs=1e-12)
        assert error2(diffs, truth) == pytest.approx(0.21602468994692867, abs=1e-12)

    def test_single_point_absolute_value(self):
        assert error1([3.0 - 7.0], [3.0]) == 7.0

    def test_constant_gap_rms_is_gap(self):
        rng = np.random.default_rng(2)
        x = rng.uniform(0.0, 5.0, 40)
        assert error2(x + 0.25, x) == pytest.approx(0.25, rel=1e-12)

    def test_empty_grid_rejected(self):
        with pytest.raises(ValueError):
            error1([], [])
        with pytest.raises(ValueError):
            error2([], [])

    def test_rms_never_exceeds_max(self):
        rng = np.random.default_rng(3)
        x = np.linspace(0.0, 1.0, 30)
        for _ in range(25):
            gaps = rng.normal(0.0, 1.0, x.size)
            truth = np.zeros_like(x)
            assert error2(gaps, truth) <= error1(gaps, truth) + 1e-15


class TestRunTrial:
    """Single trials: row k of a run's columns is trial k."""

    def test_zero_noise_beta_one_recovers_exactly(self):
        cfg = grid_config("poly", 1.0, 0.0, seed=0)
        report = run_monte_carlo(cfg, 1)
        assert report.errors[0].max() <= 1e-8

    def test_zero_noise_small_beta_reports_floor(self):
        # The two-stage pipeline has a noiseless bias floor for beta < 1;
        # it is reported, not zero.
        cfg = poly_config(eta=0.0)
        lsm_error1, lsm_error2, _, slsm_error2 = run_monte_carlo(cfg, 1).errors[0]
        assert lsm_error1 <= 1e-8
        assert lsm_error2 <= 1e-8
        assert 0.0 < slsm_error2 < 5e-3

    def test_seed_recorded(self):
        # Row k of the report is trial k: its ordinates are the bits that
        # trial draws alone from the stream (seed, k).
        cfg = poly_config(seed=9)
        report = run_monte_carlo(cfg, 5)
        assert report.config.seed == 9
        assert report.ordinates.shape == (5, cfg.n)
        for k in range(5):
            y = noisy_ordinates(cfg, trial_rng(9, k))
            assert report.ordinates[k].tobytes() == y.tobytes()

    def test_errors_match_refit_from_stored_fits(self):
        cfg = poly_config(seed=2)
        report = run_monte_carlo(cfg, 2)
        x, truth = truth_values(cfg)
        lsm_values = predict(report.lsm.model, report.lsm.params, x)
        slsm_values = predict(report.final.model, report.final.params, x)
        assert report.column("lsm_error1")[1] == error1(lsm_values[1], truth)
        assert report.column("slsm_error2")[1] == error2(slsm_values[1], truth)

    def test_strong_config_beats_plain_fit_in_median(self):
        # Polynomial, beta 0.4, eta 30: the stretched method's median RMS
        # error over 100 seeded trials is below the plain fit's.
        report = run_monte_carlo(poly_config(seed=0), 100)
        assert np.median(report.column("slsm_error2")) < np.median(report.column("lsm_error2"))


class TestRunMonteCarlo:
    def test_single_repetition_degenerate_aggregate(self):
        cfg = poly_config(seed=3)
        report = run_monte_carlo(cfg, repetitions=1)
        expected = 1.0 if report.column("slsm_error2")[0] < report.column("lsm_error2")[0] else 0.0
        assert report.summary["win_rate_error2"] == expected
        assert report.summary["win_rate_error1"] in (0.0, 1.0)

    def test_win_rates_recomputable_from_trials(self):
        cfg = poly_config(seed=4)
        report = run_monte_carlo(cfg, repetitions=40)
        lsm_error1, lsm_error2, slsm_error1, slsm_error2 = report.errors.T.tolist()
        wins1 = sum(s < p for p, s in zip(lsm_error1, slsm_error1))
        wins2 = sum(s < p for p, s in zip(lsm_error2, slsm_error2))
        assert report.summary["win_rate_error1"] == wins1 / len(report.errors)
        assert report.summary["win_rate_error2"] == wins2 / len(report.errors)

    def test_ties_counted_apart_from_wins(self):
        # At beta = 1 the two methods coincide up to rounding: every trial
        # ties, while the strict win rates still count rounding-level gaps.
        report = run_monte_carlo(grid_config("poly", 1.0, 30.0, seed=0), repetitions=100)
        summary = report.summary
        assert summary["ties_error1"] == summary["ties_error2"] == len(report.errors) == 100
        wins2 = sum(s < p for p, s in zip(report.column("lsm_error2").tolist(),
                                          report.column("slsm_error2").tolist()))
        assert summary["win_rate_error2"] == wins2 / 100
        assert run_monte_carlo(poly_config(seed=0), repetitions=20).summary["ties_error2"] == 0

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
            rows = len(short.errors)
            assert short.errors.tobytes() == longest.errors[:rows].tobytes()
            assert short.ordinates.tobytes() == longest.ordinates[:rows].tobytes()
            assert fit_summaries(short) == fit_summaries(longest)[:3 * rows]

    @pytest.mark.parametrize("reps", [1, 7, 250])
    @pytest.mark.parametrize("beta", [0.4, 0.8, 1.0])
    def test_noise_rows_are_gamma_transform_draws(self, beta, reps):
        # Row k's noise is the Gamma-transform draw of trial k's own stream,
        # standardized, whatever the number of trials.
        cfg = poly_config(seed=4, beta=beta)
        report = run_monte_carlo(cfg, reps)
        _, y = truth_values(cfg)
        for k in range(reps):
            noise = standardize(sample_exact(cfg.noise_law, trial_rng(cfg.seed, k), cfg.n))
            assert report.ordinates[k].tobytes() == (y + noise * (cfg.eta / 100.0)).tobytes()

    def test_batch_errors_match_single_trials(self):
        cfg = poly_config(seed=12)
        report = run_monte_carlo(cfg, repetitions=7)
        for k in range(7):
            errors, lsm, (transition, final) = single_trial(cfg, k)
            assert errors == tuple(report.errors[k].tolist())
            assert lsm.params[0].tobytes() == report.lsm.params[k].tobytes()
            assert transition.params[0].tobytes() == report.transition.params[k].tobytes()
            assert final.params[0].tobytes() == report.final.params[k].tobytes()

    def test_scan_cache_does_not_change_sinusoid_report(self):
        cfg = grid_config("sin", 0.8, 50.0, seed=11)
        lsq._scan_table.cache_clear()
        cold = run_monte_carlo(cfg, repetitions=6)
        assert lsq._scan_table.cache_info().currsize == 2  # x and x + x**0.8
        warm = run_monte_carlo(cfg, repetitions=6)
        assert lsq._scan_table.cache_info().hits > 0
        assert cold.errors.tobytes() == warm.errors.tobytes()
        assert fit_summaries(cold) == fit_summaries(warm)

    @pytest.mark.parametrize("family", ["poly", "sin"])
    def test_each_curve_evaluated_once(self, monkeypatch, tmp_path, family):
        # The truth once and each of the three fit batches once, on its own
        # abscissas; the figure of tables reuses the report's values.
        calls = []

        def counted(*args):
            calls.append(args)
            return predict(*args)

        for name, module in list(sys.modules.items()):
            if name == "stretchfit" or name.startswith("stretchfit."):
                for attr, value in list(vars(module).items()):
                    if value is predict:
                        monkeypatch.setattr(module, attr, counted)
        cfg = grid_config(family, 0.4, 30.0, seed=2)
        report = run_monte_carlo(cfg, repetitions=5)
        assert len(calls) == 4
        x, truth = truth_values(cfg)
        assert (report.x.tobytes(), report.truth.tobytes()) == (x.tobytes(), truth.tobytes())
        calls.clear()
        assert cli.main(["tables", "--reps", "5", "--configs", config_token(family, 0.4, 30.0),
                         "--out", str(tmp_path)]) == 0
        assert len(calls) == 4

    def test_median_and_iqr_match_numpy(self):
        cfg = poly_config(seed=8)
        report = run_monte_carlo(cfg, repetitions=30)
        for j, name in enumerate(ERROR_COLUMNS):
            col = np.array([row[j] for row in report.errors.tolist()])
            assert report.summary["medians"][name] == float(np.median(col))
            q25, q75 = np.percentile(col, [25, 75])
            assert report.summary["iqrs"][name] == float(q75 - q25)
        for metric in ("error1", "error2"):
            pairs = list(zip(report.column(f"lsm_{metric}").tolist(),
                             report.column(f"slsm_{metric}").tolist()))
            wins = sum(slsm < lsm for lsm, slsm in pairs)
            ties = sum(abs(lsm - slsm) <= TIE_RTOL * max(lsm, slsm) for lsm, slsm in pairs)
            assert report.summary[f"win_rate_{metric}"] == wins / len(pairs)
            assert report.summary[f"ties_{metric}"] == ties

    def test_summary_follows_replaced_errors(self):
        # The summary is derived from the errors, so a report with other
        # errors cannot keep the old aggregates, even once they were read.
        report = run_monte_carlo(poly_config(seed=5), repetitions=30)
        assert report.summary["repetitions"] == 30
        errors = report.errors[:11, [2, 3, 0, 1]]   # the methods swapped
        summary = dataclasses.replace(report, errors=errors).summary
        plain, stretched = errors[:, :2], errors[:, 2:]
        assert summary["repetitions"] == 11
        assert summary["excluded"] == 0
        for j, metric in enumerate(("error1", "error2")):
            wins = int(np.count_nonzero(stretched[:, j] < plain[:, j]))
            assert summary[f"win_rate_{metric}"] == wins / 11
        for j, name in enumerate(ERROR_COLUMNS):
            assert summary["medians"][name] == float(np.median(errors[:, j]))
            q25, q75 = np.percentile(errors[:, j], [25, 75])
            assert summary["iqrs"][name] == float(q75 - q25)

    def test_fit_failure_propagates(self, monkeypatch):
        def singular(*args, **kwargs):
            raise SingularFitError("synthetic failure")

        monkeypatch.setattr(experiment, "fit_batch", singular)
        with pytest.raises(SingularFitError, match="synthetic failure"):
            run_monte_carlo(poly_config(seed=9), repetitions=5)

    def test_zero_noise_outcome_is_deterministic(self):
        cfg = grid_config("poly", 1.0, 0.0, seed=10)
        a = run_monte_carlo(cfg, repetitions=5)
        b = run_monte_carlo(cfg, repetitions=5)
        assert a.summary["win_rate_error1"] == b.summary["win_rate_error1"]
        assert a.summary["win_rate_error2"] == b.summary["win_rate_error2"]

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

    def test_grid_by_value(self):
        quadratic, sinusoid = lsq.ModelSpec.polynomial(2), lsq.ModelSpec.sinusoid()
        poly, sin = (1.0, 1.0, 2.0), (1.0, 1.0, 0.0, 0.0)
        expected = [
            ("poly:b0.4:e30", quadratic, poly, 0.4, 0.4, 30.0, 7, 200, (0.0, 1.0)),
            ("poly:b0.8:e30", quadratic, poly, 0.8, 0.8, 30.0, 8, 200, (0.0, 1.0)),
            ("poly:b0.4:e50", quadratic, poly, 0.4, 0.4, 50.0, 9, 200, (0.0, 1.0)),
            ("poly:b0.8:e50", quadratic, poly, 0.8, 0.8, 50.0, 10, 200, (0.0, 1.0)),
            ("sin:b0.4:e30", sinusoid, sin, 0.4, 0.4, 30.0, 11, 200, (0.0, 1.0)),
            ("sin:b0.8:e30", sinusoid, sin, 0.8, 0.8, 30.0, 12, 200, (0.0, 1.0)),
            ("sin:b0.4:e50", sinusoid, sin, 0.4, 0.4, 50.0, 13, 200, (0.0, 1.0)),
            ("sin:b0.8:e50", sinusoid, sin, 0.8, 0.8, 50.0, 14, 200, (0.0, 1.0)),
        ]
        actual = [(token, cfg.truth_model, tuple(cfg.truth_params.tolist()), cfg.noise_law.beta,
                   cfg.beta, cfg.eta, cfg.seed, cfg.n, cfg.x_domain)
                  for token, cfg in experiment.benchmark_grid(7)]
        assert actual == expected

    def test_last_config_seed_fits_64_bits(self):
        # Configuration k uses seed + k, so 2**64 - 8 is the largest base seed.
        assert experiment.benchmark_grid(2**64 - 8)[-1][1].seed == 2**64 - 1
        with pytest.raises(ValueError, match=r"seed must be at most 2\*\*64 - 8, as "
                                             r"configuration k of the grid uses seed \+ k"):
            experiment.benchmark_grid(2**64 - 7)
