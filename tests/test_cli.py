"""CLI behaviour: file formats, exit codes, manifests, reproducibility."""

import json
import re

import numpy as np
import pytest

from stretchfit import grid_config, run_trial
from stretchfit.cli import main

from kstools import ks_crit_two_sample, ks_two_sample

FLOAT_CELL = re.compile(r"-?(\d+\.\d*|\.\d+|\d+e[+-]?\d+|\d+\.\d*e[+-]?\d+)", re.IGNORECASE)


def read_sample_file(path):
    lines = path.read_text().splitlines()
    assert lines[0].startswith("# manifest ")
    manifest = json.loads(lines[0][len("# manifest "):])
    values = np.array([float(v) for v in lines[1:]])
    return manifest, values


class TestSample:
    def test_gaussian_file_and_variance(self, tmp_path):
        out = tmp_path / "draws.txt"
        code = main(["sample", "--beta", "1", "--alpha", "1", "-D", "0.25", "-t", "1",
                     "-n", "100000", "--seed", "7", "--out", str(out)])
        assert code == 0
        manifest, values = read_sample_file(out)
        assert manifest["command"] == "sample"
        assert manifest["seed"] == 7
        assert values.size == 100000
        assert values.var() == pytest.approx(0.5, rel=0.02)

    def test_exact_and_rejection_agree(self, tmp_path):
        files = {}
        for method, seed in (("exact", "7"), ("rejection", "8")):
            out = tmp_path / f"{method}.txt"
            code = main(["sample", "--beta", "0.6", "-n", "100000", "--seed", seed,
                         "--method", method, "--out", str(out)])
            assert code == 0
            files[method] = read_sample_file(out)[1]
        d = ks_two_sample(files["exact"], files["rejection"])
        assert d < ks_crit_two_sample(100000, 100000)

    def test_sample_lines_round_trip(self, tmp_path):
        out = tmp_path / "draws.txt"
        main(["sample", "--beta", "0.5", "-n", "50", "--seed", "3", "--out", str(out)])
        for line in out.read_text().splitlines()[1:]:
            assert format(float(line), ".17g") == line

    def test_zero_count_is_usage_error(self, tmp_path, capsys):
        code = main(["sample", "--beta", "1", "-n", "0",
                     "--out", str(tmp_path / "x.txt")])
        assert code == 2
        assert "at least 1" in capsys.readouterr().err

    def test_invalid_law_is_usage_error(self, tmp_path, capsys):
        code = main(["sample", "--beta", "1.7", "-n", "10",
                     "--out", str(tmp_path / "x.txt")])
        assert code == 2
        assert "beta" in capsys.readouterr().err

    def test_rerun_to_same_path_is_byte_identical(self, tmp_path):
        out = tmp_path / "a.txt"
        main(["sample", "--beta", "0.4", "-n", "200", "--seed", "11", "--out", str(out)])
        first = out.read_bytes()
        main(["sample", "--beta", "0.4", "-n", "200", "--seed", "11", "--out", str(out)])
        assert out.read_bytes() == first


@pytest.fixture
def quadratic_csv(tmp_path):
    x = np.linspace(0.0, 1.0, 200)
    y = x**2 + x + 2.0
    path = tmp_path / "data.csv"
    path.write_text("x,y\n" + "\n".join(f"{a!r},{b!r}" for a, b in zip(x.tolist(), y.tolist())) + "\n")
    return path


class TestFit:
    def test_lsm_quadratic(self, tmp_path, quadratic_csv):
        out = tmp_path / "fit.json"
        code = main(["fit", "--input", str(quadratic_csv), "--model", "poly2",
                     "--out", str(out)])
        assert code == 0
        report = json.loads(out.read_text())
        np.testing.assert_allclose(report["params"], [1.0, 1.0, 2.0], atol=1e-8)
        assert report["converged"] is True
        assert report["stop_reason"] == "closed_form"
        assert report["manifest"]["config"]["method"] == "lsm"

    def test_stretched_beta_one_matches_lsm(self, tmp_path, quadratic_csv):
        lsm_out = tmp_path / "lsm.json"
        s_out = tmp_path / "stretched.json"
        main(["fit", "--input", str(quadratic_csv), "--model", "poly2", "--out", str(lsm_out)])
        code = main(["fit", "--input", str(quadratic_csv), "--model", "poly2",
                     "--method", "stretched", "--beta", "1", "--out", str(s_out)])
        assert code == 0
        lsm = json.loads(lsm_out.read_text())
        stretched = json.loads(s_out.read_text())
        assert "transition" in stretched["stages"]
        x = np.linspace(0.0, 1.0, 200)
        p_lsm = np.polyval(lsm["params"], x)
        p_s = np.polyval(stretched["params"], x)
        np.testing.assert_allclose(p_s, p_lsm, atol=1e-8)

    def test_fit_report_round_trips(self, tmp_path, quadratic_csv):
        out = tmp_path / "fit.json"
        main(["fit", "--input", str(quadratic_csv), "--model", "poly2", "--out", str(out)])
        text = out.read_text()
        assert json.dumps(json.loads(text), indent=2, sort_keys=True) + "\n" == text

    def test_sinusoid_needs_four_points(self, tmp_path, capsys):
        path = tmp_path / "two.csv"
        path.write_text("x,y\n0.0,0.0\n1.0,0.8\n")
        code = main(["fit", "--input", str(path), "--model", "sin",
                     "--out", str(tmp_path / "f.json")])
        assert code == 2

    def test_malformed_csv_is_usage_error(self, tmp_path, capsys):
        path = tmp_path / "bad.csv"
        path.write_text("x,y\n0.0,zero\n")
        code = main(["fit", "--input", str(path), "--model", "poly1",
                     "--out", str(tmp_path / "f.json")])
        assert code == 2
        assert "non-numeric" in capsys.readouterr().err

    def test_stretched_requires_beta(self, tmp_path, quadratic_csv):
        code = main(["fit", "--input", str(quadratic_csv), "--model", "poly2",
                     "--method", "stretched", "--out", str(tmp_path / "f.json")])
        assert code == 2

    def test_rank_deficient_is_numerical_failure(self, tmp_path, capsys):
        path = tmp_path / "flat.csv"
        path.write_text("x,y\n2.0,1.0\n2.0,2.0\n2.0,3.0\n")
        code = main(["fit", "--input", str(path), "--model", "poly1",
                     "--out", str(tmp_path / "f.json")])
        assert code == 4

    def test_nonconvergence_exit_code_and_report(self, tmp_path):
        # These data's best frequency is the search domain's lower end.
        rng = np.random.default_rng(1)
        x = np.linspace(0.0, 1.0, 40)
        y = np.sin(3.0 * x) + rng.normal(0.0, 0.3, 40)
        path = tmp_path / "noisy.csv"
        path.write_text("x,y\n" + "\n".join(f"{a!r},{b!r}" for a, b in zip(x.tolist(), y.tolist())) + "\n")
        out = tmp_path / "f.json"
        code = main(["fit", "--input", str(path), "--model", "sin", "--out", str(out)])
        assert code == 3
        report = json.loads(out.read_text())
        assert report["converged"] is False
        assert report["stop_reason"] == "boundary"
        assert len(report["params"]) == 4

    def test_headerless_csv_accepted(self, tmp_path):
        path = tmp_path / "raw.csv"
        path.write_text("0.0,1.0\n1.0,3.0\n2.0,5.0\n")
        out = tmp_path / "f.json"
        assert main(["fit", "--input", str(path), "--model", "poly1", "--out", str(out)]) == 0
        np.testing.assert_allclose(json.loads(out.read_text())["params"], [2.0, 1.0], atol=1e-10)


class TestExperiment:
    def test_report_contents(self, tmp_path):
        out = tmp_path / "report.json"
        code = main(["experiment", "--model", "poly", "--beta", "0.4", "--eta", "30",
                     "--reps", "10", "--seed", "0", "--out", str(out)])
        assert code == 0
        report = json.loads(out.read_text())
        assert report["repetitions"] == 10
        assert len(report["trials"]) == 10
        wins2 = sum(t["slsm_error2"] < t["lsm_error2"] for t in report["trials"])
        assert report["win_rate_error2"] == wins2 / 10
        ties2 = sum(abs(t["slsm_error2"] - t["lsm_error2"])
                    <= 1e-9 * max(t["slsm_error2"], t["lsm_error2"]) for t in report["trials"])
        assert report["ties_error2"] == ties2
        assert set(report["medians"]) == {"lsm_error1", "lsm_error2",
                                          "slsm_error1", "slsm_error2"}

    def test_stretched_converged_covers_both_stages(self, tmp_path):
        # Trial 9 of sin:b0.4:e50 at seed 6 (a row of acceptance criterion 6):
        # the transition stage stops on the frequency boundary while the
        # final stage converges, so the stretched fit is not converged.
        stages = run_trial(grid_config("sin", 0.4, 50.0, seed=6), 9).slsm_fit
        assert (stages.transition.stop_reason, stages.final.stop_reason) == ("boundary", "tolerance")
        out = tmp_path / "report.json"
        code = main(["experiment", "--model", "sin", "--beta", "0.4", "--eta", "50",
                     "--reps", "10", "--seed", "6", "--out", str(out)])
        assert code == 0
        trial = json.loads(out.read_text())["trials"][9]
        assert trial["trial"] == 9
        assert trial["slsm_converged"] is False

    @pytest.mark.parametrize("command", [
        ["experiment", "--model", "poly", "--beta", "0.4", "--eta", "30"],
        ["tables", "--configs", "poly:b0.4:e30"],
    ], ids=["experiment", "tables"])
    @pytest.mark.parametrize("threads", ["0", "-3"])
    def test_threads_below_one_is_usage_error(self, tmp_path, capsys, command, threads):
        out = tmp_path / "out"
        code = main([*command, "--reps", "2", "--threads", threads, "--out", str(out)])
        assert code == 2
        assert "threads must be at least 1" in capsys.readouterr().err
        assert not out.exists()

    def test_round_trips(self, tmp_path):
        out = tmp_path / "report.json"
        main(["experiment", "--model", "poly", "--beta", "0.8", "--eta", "50",
              "--reps", "5", "--out", str(out)])
        text = out.read_text()
        assert json.dumps(json.loads(text), indent=2, sort_keys=True) + "\n" == text


class TestTables:
    def test_single_config_outputs(self, tmp_path):
        outdir = tmp_path / "tables"
        code = main(["tables", "--reps", "8", "--seed", "0",
                     "--configs", "poly:b0.4:e30", "--out", str(outdir)])
        assert code == 0
        names = sorted(p.name for p in outdir.iterdir())
        assert names == ["figure_poly_b0.4_e30.csv", "manifest.json",
                         "summary_poly_b0.4_e30.csv", "table_poly_b0.4_e30.csv"]

        summary = (outdir / "summary_poly_b0.4_e30.csv").read_text().splitlines()
        assert summary[0].startswith(
            "config,repetitions,excluded,win_rate_error1,win_rate_error2,ties_error1,ties_error2,")

        table = (outdir / "table_poly_b0.4_e30.csv").read_text().splitlines()
        assert table[0] == "method,a,b,c,error1,error2"
        assert [row.split(",")[0] for row in table[1:]] == ["f", "LSM", "Stretched-LSM"]
        truth_row = table[1].split(",")
        assert [float(v) for v in truth_row[1:]] == [1.0, 1.0, 2.0, 0.0, 0.0]

        figure = (outdir / "figure_poly_b0.4_e30.csv").read_text().splitlines()
        assert figure[0] == "x,y_noisy,f_true,F_lsm,F_slsm"
        assert len(figure) == 1 + 200

        manifest = json.loads((outdir / "manifest.json").read_text())
        assert manifest["manifest"]["config"]["reps"] == 8
        assert "poly:b0.4:e30" in manifest["summaries"]

    def test_unknown_config_rejected(self, tmp_path, capsys):
        code = main(["tables", "--configs", "poly:b0.9:e30", "--out", str(tmp_path / "t")])
        assert code == 2
        assert "unknown configs" in capsys.readouterr().err

    def test_reruns_are_byte_identical(self, tmp_path):
        outdir = tmp_path / "run"
        argv = ["tables", "--reps", "6", "--seed", "42",
                "--configs", "poly:b0.8:e50", "--out", str(outdir)]
        assert main(argv) == 0
        snapshot = {p.name: p.read_bytes() for p in outdir.iterdir()}
        assert main(argv) == 0
        for p in outdir.iterdir():
            assert p.read_bytes() == snapshot[p.name], p.name

    def test_csv_float_cells_round_trip(self, tmp_path):
        outdir = tmp_path / "tables"
        main(["tables", "--reps", "5", "--seed", "1",
              "--configs", "poly:b0.4:e50", "--out", str(outdir)])
        for csv_path in outdir.glob("*.csv"):
            for line in csv_path.read_text().splitlines()[1:]:
                for cell in line.split(","):
                    if FLOAT_CELL.fullmatch(cell):
                        assert format(float(cell), ".17g") == cell, (csv_path, cell)


class TestConfigFile:
    def test_config_file_overrides_defaults(self, tmp_path):
        cfg = tmp_path / "cfg.json"
        cfg.write_text(json.dumps({"reps": 4, "seed": 5}))
        outdir = tmp_path / "t"
        code = main(["tables", "--configs", "poly:b0.4:e30", "--out", str(outdir),
                     "--config", str(cfg)])
        assert code == 0
        manifest = json.loads((outdir / "manifest.json").read_text())
        assert manifest["manifest"]["config"]["reps"] == 4
        assert manifest["manifest"]["seed"] == 5

    def test_unknown_config_key_rejected(self, tmp_path, capsys):
        cfg = tmp_path / "cfg.json"
        cfg.write_text(json.dumps({"repetitions": 4}))
        code = main(["tables", "--configs", "poly:b0.4:e30",
                     "--out", str(tmp_path / "t"), "--config", str(cfg)])
        assert code == 2

    def test_config_value_of_wrong_type_rejected(self, tmp_path, capsys):
        cfg = tmp_path / "cfg.json"
        cfg.write_text(json.dumps({"reps": "3"}))
        code = main(["tables", "--configs", "poly:b0.4:e30",
                     "--out", str(tmp_path / "t"), "--config", str(cfg)])
        assert code == 2
        assert "'reps'" in capsys.readouterr().err

    def test_explicit_flag_beats_config(self, tmp_path):
        cfg = tmp_path / "cfg.json"
        cfg.write_text(json.dumps({"reps": 2, "seed": 3}))
        outdir = tmp_path / "t"
        code = main(["tables", "--configs", "poly:b0.4:e30", "--reps", "5",
                     "--out", str(outdir), "--config", str(cfg)])
        assert code == 0
        manifest = json.loads((outdir / "manifest.json").read_text())
        assert manifest["manifest"]["config"]["reps"] == 5
        assert manifest["manifest"]["seed"] == 3

    @pytest.mark.parametrize("key", ["func", "command"])
    def test_internal_config_key_rejected(self, tmp_path, key):
        cfg = tmp_path / "cfg.json"
        cfg.write_text(json.dumps({key: 1}))
        code = main(["tables", "--configs", "poly:b0.4:e30",
                     "--out", str(tmp_path / "t"), "--config", str(cfg)])
        assert code == 2
        assert not (tmp_path / "t").exists()
