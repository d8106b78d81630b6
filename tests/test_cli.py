"""CLI behaviour: file formats, exit codes, manifests, reproducibility."""

import dataclasses
import json
import os
import re
import subprocess
import sys
import warnings
from pathlib import Path

import numpy as np
import pytest

import stretchfit.cli as cli
import stretchfit.experiment as experiment
from stretchfit import (ModelSpec, SingularFitError, benchmark_grid, grid_config, predict,
                        run_monte_carlo, stretched_fit_batch)
from stretchfit.cli import _read_xy_csv, _representative_trial, build_parser, main
from stretchfit.experiment import trial_rng

from kstools import ks_crit_two_sample, ks_two_sample

FLOAT_CELL = re.compile(r"-?(\d+\.\d*|\.\d+|\d+e[+-]?\d+|\d+\.\d*e[+-]?\d+)", re.IGNORECASE)


def strict_json(text):
    """Parse ``text`` as RFC 8259 JSON, which has no NaN or Infinity."""
    def reject(name):
        raise ValueError(f"non-standard JSON constant {name}")
    return json.loads(text, parse_constant=reject)


@pytest.fixture
def failing_fit(monkeypatch):
    def fail(*args, **kwargs):
        raise SingularFitError("synthetic failure")
    monkeypatch.setattr(experiment, "fit_batch", fail)


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

    @pytest.mark.parametrize("command, message", [
        (["sample", "--beta", "0.001", "-n", "5"], r"variates overflow \(.*beta = 0\.001 "),
        (["sample", "--method", "exact", "--beta", "0.001", "-n", "5"],
         r"variates overflow \(.*beta = 0\.001 "),
        (["experiment", "--model", "poly", "--beta", "0.001", "--eta", "30"],
         r"variates overflow \(.*beta = 0\.001 "),
        (["sample", "-n", "4", "-D", "1e308", "-t", "10"], r"scale .* got inf$"),
        (["sample", "-D", "1e300", "-t", "1e300", "--beta", "0.1", "-n", "4"],
         r"scale .* got inf$"),
        (["sample", "--method", "exact", "-D", "1e300", "-t", "1e300", "--beta", "0.1",
          "-n", "4"], r"scale .* got inf$"),
        (["sample", "-n", "4", "-D", "5e-324", "-t", "1e-300"], r"scale .* got 0\.0$"),
        (["sample", "-n", "4", "--beta", "1e-320"], r"gamma_shape .* got inf$"),
        (["experiment", "--model", "poly", "--beta", "1e-320", "--eta", "30", "--reps", "2"],
         r"gamma_shape .* got inf$"),
    ], ids=["rejection", "exact", "experiment", "scale", "scale-large-time",
            "scale-large-time-exact", "scale-underflow", "gamma-shape", "gamma-shape-experiment"])
    def test_overflowing_variates_are_usage_error(self, tmp_path, capsys, command, message):
        # At beta 0.001 the variates (c g)**(1 / (2 beta)) of Gamma draws g
        # overflow.  A law whose scale 4 D t**alpha or Gamma shape 1 / (2 beta)
        # is not a positive finite number is refused before any draw.
        out = tmp_path / "out"
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            code = main([*command, "--out", str(out)])
        assert code == 2
        err = capsys.readouterr().err
        assert re.match("stretchfit: error: " + message, err.rstrip("\n")), err
        assert not out.exists()

    @pytest.mark.parametrize("command, message", [
        (["sample", "-n", "1000000000000000000"], "Unable to allocate"),
        (["experiment", "--model", "poly", "--beta", "0.4", "--eta", "30",
          "-n", "1000000000000000000"], "Unable to allocate"),
        (["experiment", "--model", "poly", "--beta", "0.4", "--eta", "30",
          "--reps", "1000000000000000000"], "Unable to allocate"),
        # np.linspace fails with an IndexError near 2**63 points, so such an
        # n is refused before the abscissas are built.
        (["experiment", "--model", "poly", "--beta", "0.4", "--eta", "30",
          "-n", "9223372036854775807"], "n = 9223372036854775807 is above "),
        (["experiment", "--model", "sin", "--beta", "0.4", "--eta", "30",
          "-n", "9223372036854775808"], "n = 9223372036854775808 is above "),
    ], ids=["sample", "experiment", "reps", "n-2**63-1", "n-2**63"])
    def test_unallocatable_size_is_usage_error(self, tmp_path, capsys, command, message):
        # numpy refuses an array of 10**18 8-byte entries before allocating
        # anything, and no loop over samples or trials runs before that.
        out = tmp_path / "out"
        code = main([*command, "--out", str(out)])
        assert code == 2
        err = capsys.readouterr().err
        assert err.startswith(f"stretchfit: error: {message}")
        assert "Traceback" not in err
        assert not out.exists()

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
        assert stretched["stages"]["beta"] == 1.0
        x = np.linspace(0.0, 1.0, 200)
        p_lsm = np.polyval(lsm["params"], x)
        p_s = np.polyval(stretched["params"], x)
        np.testing.assert_allclose(p_s, p_lsm, atol=1e-8)

    def test_fit_report_round_trips(self, tmp_path, quadratic_csv):
        out = tmp_path / "fit.json"
        main(["fit", "--input", str(quadratic_csv), "--model", "poly2", "--out", str(out)])
        text = out.read_text()
        assert json.dumps(json.loads(text), indent=2, sort_keys=True) + "\n" == text

    @pytest.mark.parametrize("method", [["--method", "lsm"],
                                        ["--method", "stretched", "--beta", "0.5"]],
                             ids=["lsm", "stretched"])
    def test_sinusoid_needs_four_points(self, tmp_path, capsys, method):
        path = tmp_path / "three.csv"
        path.write_text("x,y\n0.0,0.0\n0.5,0.5\n1.0,0.8\n")
        code = main(["fit", "--input", str(path), "--model", "sin", *method,
                     "--out", str(tmp_path / "f.json")])
        assert code == 2
        assert "sinusoid fits need at least 4 points" in capsys.readouterr().err

    def test_malformed_csv_is_usage_error(self, tmp_path, capsys):
        path = tmp_path / "bad.csv"
        path.write_text("x,y\n0.0,zero\n")
        code = main(["fit", "--input", str(path), "--model", "poly1",
                     "--out", str(tmp_path / "f.json")])
        assert code == 2
        err = capsys.readouterr().err
        assert "non-numeric" in err
        assert str(path) in err

    def test_stretched_requires_beta(self, tmp_path, quadratic_csv):
        code = main(["fit", "--input", str(quadratic_csv), "--model", "poly2",
                     "--method", "stretched", "--out", str(tmp_path / "f.json")])
        assert code == 2

    def test_usage_checked_before_input_is_read(self, tmp_path, capsys):
        missing = str(tmp_path / "missing.csv")
        code = main(["fit", "--input", missing, "--model", "poly2",
                     "--method", "stretched", "--out", str(tmp_path / "f.json")])
        assert code == 2
        assert "--beta" in capsys.readouterr().err
        # Only "poly" and ASCII digits name a polynomial; int() would take the rest.
        for token in ["cubic", "poly 2", "poly1_0", "poly+2", "poly\u0662", "poly\uff12"]:
            assert main(["fit", "--input", missing, "--model", token]) == 2
            assert f"unknown model {token!r}" in capsys.readouterr().err

    def test_rank_deficient_is_numerical_failure(self, tmp_path, capsys):
        path = tmp_path / "flat.csv"
        path.write_text("x,y\n2.0,1.0\n2.0,2.0\n2.0,3.0\n")
        code = main(["fit", "--input", str(path), "--model", "poly1",
                     "--out", str(tmp_path / "f.json")])
        assert code == 4

    @pytest.mark.parametrize("method", [[], ["--method", "stretched", "--beta", "0.4"]],
                             ids=["lsm", "stretched"])
    def test_overflowing_polynomial_fit_is_usage_error(self, tmp_path, capsys, method):
        path = tmp_path / "big.csv"
        path.write_text("x,y\n" + "".join(f"{i}e200,{i}\n" for i in range(5)))
        out = tmp_path / "f.json"
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            code = main(["fit", "--input", str(path), "--model", "poly2", *method,
                         "--out", str(out)])
        assert code == 2
        assert capsys.readouterr().err == (
            "stretchfit: error: polynomial fit overflows (overflow encountered in multiply): "
            "the abscissas are too large\n")
        assert not out.exists()

    @pytest.mark.parametrize("model", ["poly0", "poly1"])
    def test_overflowing_reset_is_usage_error(self, tmp_path, capsys, model):
        # x + x**1 overflows although every abscissa is finite.
        path = tmp_path / "huge.csv"
        path.write_text("x,y\n" + "".join(f"{0.9e308 + i * (0.8e308 / 9)!r},{i}\n"
                                           for i in range(10)))
        out = tmp_path / "f.json"
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            code = main(["fit", "--input", str(path), "--model", model,
                         "--method", "stretched", "--beta", "1", "--out", str(out)])
        assert code == 2
        assert capsys.readouterr().err == (
            "stretchfit: error: horizontal reset overflows (overflow encountered in add): "
            "the abscissas are too large\n")
        assert not out.exists()

    @pytest.mark.parametrize("beta,rows,message", [
        ("0.4", "-0.5,1\n0,2\n1,3\n", "point -0.5 lies before the axis origin 0.0"),
        ("1.5", "0,1\n1,2\n2,3\n", "exponent must lie in (0, 1], got 1.5"),
    ], ids=["negative-abscissa", "beta-out-of-range"])
    def test_reset_rejects_with_axis_message(self, tmp_path, capsys, beta, rows, message):
        path = tmp_path / "in.csv"
        path.write_text("x,y\n" + rows)
        out = tmp_path / "f.json"
        code = main(["fit", "--input", str(path), "--model", "poly1",
                     "--method", "stretched", "--beta", beta, "--out", str(out)])
        assert code == 2
        assert capsys.readouterr().err == f"stretchfit: error: {message}\n"
        assert not out.exists()

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


@pytest.fixture
def loadtxt_sources(monkeypatch):
    """The type of each source given to np.loadtxt, in call order."""
    sources = []
    loadtxt = np.loadtxt

    def recording_loadtxt(source, *args, **kwargs):
        sources.append(type(source))
        return loadtxt(source, *args, **kwargs)
    monkeypatch.setattr(np, "loadtxt", recording_loadtxt)
    return sources


class TestFitInput:
    """The `fit` reader: numpy's parser must agree with Python's float()."""

    def test_repr_doubles_parse_bit_equal_to_float(self, tmp_path):
        rng = np.random.default_rng(12)
        x = np.sort(rng.uniform(0.0, 3.0, 2000))
        y = 1.5 * x**2 - x + 2.0 + 0.3 * rng.laplace(size=x.size)
        path = tmp_path / "data.csv"
        path.write_text("x,y\n" + "".join(f"{a!r},{b!r}\n" for a, b in zip(x.tolist(), y.tolist())))
        cells = [line.split(",") for line in path.read_text().splitlines()[1:]]
        xs = [float(a) for a, _ in cells]
        ys = [float(b) for _, b in cells]
        for got, want in zip(_read_xy_csv(path), (xs, ys)):
            assert got.flags.c_contiguous
            assert got.dtype == np.float64
            assert got.tobytes() == np.array(want).tobytes()

        out = tmp_path / "fit.json"
        assert main(["fit", "--input", str(path), "--model", "poly2", "--method", "stretched",
                     "--beta", "0.4", "--out", str(out)]) == 0
        _, expected = stretched_fit_batch(ModelSpec.polynomial(2), np.array(xs), np.array([ys]), 0.4)
        assert json.loads(out.read_text())["params"] == expected.params[0].tolist()

    def test_extreme_doubles_parse_bit_equal_to_float(self, tmp_path):
        values = [0.0, -0.0, 5e-324, -2.2250738585072014e-308, 1.7976931348623157e+308,
                  0.1, 1 / 3, -123456789.12345679, 9007199254740993.0, 1e22, 1e23]
        cells = [repr(v) for v in values] + ["1E5", "+2.5", ".5", "5.", "-1e-7", "007"]
        path = tmp_path / "extreme.csv"
        path.write_text("".join(f"{c},{c}\n" for c in cells))
        want = np.array([float(c) for c in cells])
        got_x, got_y = _read_xy_csv(path)
        assert got_x.tobytes() == want.tobytes()
        assert got_y.tobytes() == want.tobytes()

    @pytest.mark.parametrize("text, x, y", [
        ("x,y\n0,1\n1,3\n", [0.0, 1.0], [1.0, 3.0]),
        ("x,y\n\n0,1\n   \n\t\n1,3\n\n", [0.0, 1.0], [1.0, 3.0]),
        ("# title\n0,1\n# whole line\n  # indented\n1,3\n", [0.0, 1.0], [1.0, 3.0]),
        ("x,y\r\n0,1\r\n\r\n1,3\r\n", [0.0, 1.0], [1.0, 3.0]),
        ("x,y,w\n0,1,a\n1,3\n2,5,6,7\n", [0.0, 1.0, 2.0], [1.0, 3.0, 5.0]),
        ("  0 , 1 \n1,3", [0.0, 1.0], [1.0, 3.0]),
        ("x,y\n2.5,7\n", [2.5], [7.0]),
        ("\ufeffx,y\n0,1\n1,3\n", [0.0, 1.0], [1.0, 3.0]),
        ("\ufeff0,1\n1,3\n", [0.0, 1.0], [1.0, 3.0]),
    ], ids=["header", "blank-lines", "comments", "crlf", "extra-columns", "padded-cells",
            "single-row", "bom", "bom-no-header"])
    def test_accepted_layouts(self, tmp_path, text, x, y):
        path = tmp_path / "in.csv"
        path.write_bytes(text.encode())
        got_x, got_y = _read_xy_csv(path)
        assert got_x.tolist() == x
        assert got_y.tolist() == y
        assert main(["fit", "--input", str(path), "--model", "poly0",
                     "--out", str(tmp_path / "f.json")]) == 0

    @pytest.mark.parametrize("text, message", [
        ("x,y\n0,1\n2\n", ":3: non-numeric cell or missing column"),
        ("x,y\n0,1\n2,\n", ":3: non-numeric cell or missing column"),
        ("x,y\n0,zero\n", ":2: non-numeric cell or missing column"),
        ("\nx,y\n0,1\n", ":2: non-numeric cell or missing column"),
        ("x,y\n1_000,1\n", ":2: non-numeric cell or missing column"),
        ("x,y\n# c\n\n1,2\n3", ":5: non-numeric cell or missing column"),
        ("x,y\n", ": no data rows"),
        ("", ": no data rows"),
        ("# only a comment\n\n  \n", ": no data rows"),
        ("x,y\n0,1\n1,nan\n", ":3: non-finite cell"),
        ("x,y\n0,1\ninf,1\n", ":3: non-finite cell"),
        ("x,y\n1,nan\n2,abc\n", ":2: non-finite cell"),
    ], ids=["short-row", "empty-cell", "non-numeric", "late-header", "underscore-numeral",
            "comment-and-blank-lines", "header-only", "empty", "comments-only", "nan", "inf",
            "first-bad-line-wins"])
    def test_rejected_inputs(self, tmp_path, capsys, text, message):
        path = tmp_path / "in.csv"
        path.write_text(text)
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            code = main(["fit", "--input", str(path), "--model", "poly0",
                         "--out", str(tmp_path / "f.json")])
        assert code == 2
        assert f"{path}{message}" in capsys.readouterr().err

    def test_bad_line_found_past_the_first_block(self, tmp_path, capsys):
        rows = [f"{i},{i}" for i in range(3000)]
        rows[2500] = "3,abc"
        rows[2900] = "nan,1"
        path = tmp_path / "long.csv"
        path.write_text("x,y\n" + "\n".join(rows) + "\n")
        assert main(["fit", "--input", str(path), "--model", "poly0",
                     "--out", str(tmp_path / "f.json")]) == 2
        assert f"{path}:2502: non-numeric cell" in capsys.readouterr().err
        rows[2500] = "3,4"
        path.write_text("x,y\n" + "\n".join(rows) + "\n")
        assert main(["fit", "--input", str(path), "--model", "poly0",
                     "--out", str(tmp_path / "f.json")]) == 2
        assert f"{path}:2902: non-finite cell" in capsys.readouterr().err

    def test_long_file_parses_bit_equal_on_either_route(self, tmp_path, loadtxt_sources):
        # More rows than numpy reads in one chunk.
        rng = np.random.default_rng(5)
        x = np.sort(rng.uniform(-1e3, 1e3, 120_000))
        y = rng.standard_normal(x.size) * 10.0 ** rng.integers(-300, 300, x.size)
        rows = [f"{a!r},{b!r}" for a, b in zip(x.tolist(), y.tolist())]
        want = [np.array([float(cell) for cell in column])
                for column in zip(*(row.split(",") for row in rows))]
        path = tmp_path / "long.csv"
        # numpy reads a plain file and indented data rows by path alone; it
        # rejects whitespace-only and indented comment lines, so that file is
        # read by path, then by the line reader.
        for body, sources in [
            (rows, [str]),
            (["  " + row for row in rows], [str]),
            (rows[:100_000] + ["  \t", "   # indented comment"] + rows[100_000:], [str, map]),
        ]:
            path.write_text("x,y\n" + "\n".join(body) + "\n")
            loadtxt_sources.clear()
            got = _read_xy_csv(path)
            assert loadtxt_sources == sources
            for column, expected in zip(got, want):
                assert column.tobytes() == expected.tobytes()

    def test_compressed_suffix_is_read_as_written(self, tmp_path):
        path = tmp_path / "data.csv.gz"
        path.write_text("x,y\n0,1\n1,3\n")
        got_x, got_y = _read_xy_csv(path)
        assert got_x.tolist() == [0.0, 1.0]
        assert got_y.tolist() == [1.0, 3.0]

    @pytest.mark.parametrize("header", ["x,y\n", ""], ids=["header", "no-header"])
    def test_piped_input(self, tmp_path, header):
        rows = "".join(f"{i},{2 * i + 1 + 0.25 * (-1) ** i}\n" for i in range(6))
        path = tmp_path / "in.csv"
        path.write_text(header + rows)
        assert main(["fit", "--input", str(path), "--model", "poly1",
                     "--out", str(tmp_path / "file.json")]) == 0
        env = {**os.environ, "PYTHONPATH": os.pathsep.join(
            [str(Path(cli.__file__).parents[1]), os.environ.get("PYTHONPATH", "")])}
        command = [sys.executable, "-m", "stretchfit.cli", "fit", "--input", "/dev/stdin",
                   "--model", "poly1"]
        piped = subprocess.run(command + ["--out", str(tmp_path / "pipe.json")],
                               input=header + rows, capture_output=True, text=True,
                               env=env, timeout=120)
        assert piped.returncode == 0, piped.stderr
        params = [json.loads((tmp_path / name).read_text())["params"]
                  for name in ("file.json", "pipe.json")]
        assert params[0] == params[1]

        # A bad line of a pipe is named as in a file.
        text = header + rows + "6,x\n"
        piped = subprocess.run(command + ["--out", str(tmp_path / "bad.json")],
                               input=text, capture_output=True, text=True, env=env, timeout=120)
        assert piped.returncode == 2
        assert f"/dev/stdin:{len(text.splitlines())}: non-numeric cell" in piped.stderr

    def test_undecodable_file_is_usage_error(self, tmp_path, capsys, loadtxt_sources):
        path = tmp_path / "latin1.csv"
        path.write_bytes("x,y\n0,1\n1,\xe9\n".encode("latin-1"))
        assert main(["fit", "--input", str(path), "--model", "poly0"]) == 2
        assert f"cannot read {path}" in capsys.readouterr().err

        # A blank-led file whose bad byte lies past the header's first read
        # reaches numpy first, and fails the same way.
        loadtxt_sources.clear()
        rows = "".join(f"  {i},{i}\n" for i in range(2000))
        path.write_bytes(f"x,y\n  \n{rows}1,\xe9\n".encode("latin-1"))
        assert main(["fit", "--input", str(path), "--model", "poly0"]) == 2
        assert f"cannot read {path}" in capsys.readouterr().err
        assert loadtxt_sources[0] is str


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
        # Trial 6 of sin:b0.4:e50 at seed 3 (a row of acceptance criterion 6):
        # the transition stage stops on the frequency boundary while the
        # final stage converges, so the stretched fit is not converged.
        stages = run_monte_carlo(grid_config("sin", 0.4, 50.0, seed=3), 10)
        assert (stages.transition.stop_reasons[6], stages.final.stop_reasons[6]) == ("boundary", "tolerance")
        out = tmp_path / "report.json"
        code = main(["experiment", "--model", "sin", "--beta", "0.4", "--eta", "50",
                     "--reps", "10", "--seed", "3", "--out", str(out)])
        assert code == 0
        trial = json.loads(out.read_text())["trials"][6]
        assert trial["trial"] == 6
        assert trial["slsm_converged"] is False

    @pytest.mark.parametrize("command", [
        ["experiment", "--model", "poly", "--beta", "0.4", "--eta", "30", "--reps", "2"],
        ["tables", "--configs", "poly:b0.4:e30", "--reps", "2"],
        ["sample", "-n", "10"],
        ["fit", "--model", "poly2"],
    ], ids=["experiment", "tables", "sample", "fit"])
    @pytest.mark.parametrize("threads", ["0", "-3"])
    def test_threads_below_one_is_usage_error(self, tmp_path, capsys, quadratic_csv,
                                              command, threads):
        if command[0] == "fit":
            command = [*command, "--input", str(quadratic_csv)]
        out = tmp_path / "out"
        code = main([*command, "--threads", threads, "--out", str(out)])
        assert code == 2
        assert "threads must be at least 1" in capsys.readouterr().err
        assert not out.exists()

    @pytest.mark.parametrize("command", [
        ["experiment", "--model", "poly", "--beta", "0.4", "--eta", "30", "--reps", "2"],
        ["tables", "--configs", "poly:b0.4:e30", "--reps", "2"],
        ["sample", "-n", "3"],
        ["fit", "--model", "poly2"],
    ], ids=["experiment", "tables", "sample", "fit"])
    @pytest.mark.parametrize("via", ["flag", "config"])
    def test_empty_out_is_usage_error(self, tmp_path, monkeypatch, capsys, quadratic_csv,
                                      command, via):
        if command[0] == "fit":
            command = [*command, "--input", str(quadratic_csv)]
        if via == "flag":
            command = [*command, "--out", ""]
        else:
            cfg = tmp_path / "cfg.json"
            cfg.write_text(json.dumps({"out": ""}))
            command = [*command, "--config", str(cfg)]
        before = sorted(tmp_path.iterdir())
        monkeypatch.chdir(tmp_path)
        assert main(command) == 2
        assert "--out needs a path" in capsys.readouterr().err
        assert sorted(tmp_path.iterdir()) == before

    @pytest.mark.parametrize("option, value", [("--eta", "nan"), ("--eta", "inf"),
                                               ("--xmax", "inf"), ("--xmax", "nan")])
    def test_non_finite_config_is_usage_error(self, tmp_path, capsys, option, value):
        # The later of two equal options wins, so this replaces --eta 30.
        code = main(["experiment", "--model", "poly", "--beta", "0.4", "--eta", "30",
                     "--reps", "2", "--out", str(tmp_path / "r.json"), option, value])
        assert code == 2
        assert value in capsys.readouterr().err
        assert not (tmp_path / "r.json").exists()

    def test_fit_failure_is_numerical_failure(self, tmp_path, capsys, failing_fit):
        out = tmp_path / "report.json"
        code = main(["experiment", "--model", "poly", "--beta", "0.4", "--eta", "30",
                     "--reps", "3", "--out", str(out)])
        assert code == 4
        err = capsys.readouterr().err
        assert "synthetic failure" in err and "Traceback" not in err
        assert not out.exists()

    def test_rank_deficient_design_is_numerical_failure(self, tmp_path, capsys):
        # On [0, 1e120] the powers x**2 and x differ by 120 decades.
        out = tmp_path / "report.json"
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            code = main(["experiment", "--model", "poly", "--beta", "0.4", "--eta", "30",
                         "--reps", "3", "--xmax", "1e120", "--out", str(out)])
        assert code == 4
        assert capsys.readouterr().err == ("stretchfit: numerical failure: design matrix "
                                           "rank 1 below 3; abscissas are degenerate\n")
        assert not out.exists()

    def test_round_trips(self, tmp_path):
        out = tmp_path / "report.json"
        main(["experiment", "--model", "poly", "--beta", "0.8", "--eta", "50",
              "--reps", "5", "--out", str(out)])
        text = out.read_text()
        assert json.dumps(json.loads(text), indent=2, sort_keys=True) + "\n" == text

    @pytest.mark.parametrize("model, beta, eta, seed, reps", [
        ("poly", 0.8, 50.0, 3, 250),
        # Trial 6's transition stage stops on the frequency boundary, and
        # trial 2's plain fit does.
        ("sin", 0.4, 50.0, 3, 16),
        # Every trial has the same errors.
        ("poly", 0.4, 0.0, 0, 6),
    ], ids=["poly-250", "sin-boundary", "eta-0"])
    def test_report_is_json_dumps_of_the_trial_dicts(self, tmp_path, model, beta, eta, seed,
                                                     reps):
        # The report's trials are formatted from its columns; the file must be
        # the bytes json.dumps writes for one dict per trial.
        out = tmp_path / "report.json"
        code = main(["experiment", "--model", model, "--beta", str(beta), "--eta", str(eta),
                     "--reps", str(reps), "--seed", str(seed), "--out", str(out)])
        assert code == 0
        text = out.read_text()
        report = run_monte_carlo(grid_config(model, beta, eta, seed=seed), reps)
        trials = [
            {
                "trial": i,
                "lsm_error1": e1,
                "lsm_error2": e2,
                "slsm_error1": s1,
                "slsm_error2": s2,
                "lsm_converged": report.lsm.stop_reasons[i] != "boundary",
                "slsm_converged": "boundary" not in (report.transition.stop_reasons[i],
                                                     report.final.stop_reasons[i]),
            }
            for i, (e1, e2, s1, s2) in enumerate(report.errors.tolist())
        ]
        payload = {
            "manifest": json.loads(text)["manifest"],
            "config": f"{model}:b{beta:g}:e{eta:g}",
            "repetitions": reps,
            "excluded": 0,
            "failures": [],
            "win_rate_error1": report.summary["win_rate_error1"],
            "win_rate_error2": report.summary["win_rate_error2"],
            "ties_error1": report.summary["ties_error1"],
            "ties_error2": report.summary["ties_error2"],
            "medians": report.summary["medians"],
            "iqrs": report.summary["iqrs"],
            "trials": trials,
        }
        assert len(trials) == reps
        if model == "sin":
            assert trials[6]["slsm_converged"] is False
            assert (trials[2]["lsm_converged"], trials[2]["slsm_converged"]) == (False, True)
        assert text == json.dumps(payload, indent=2, sort_keys=True, allow_nan=False) + "\n"

    def test_overflowing_standardization_is_usage_error(self, tmp_path, capsys):
        # At beta 0.005 the variates stay finite (up to about 1e211), but
        # their squares overflow while the noise is standardized.
        out = tmp_path / "r.json"
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            code = main(["experiment", "--model", "poly", "--beta", "0.005", "--eta", "30",
                         "--reps", "3", "--out", str(out)])
        assert code == 2
        assert capsys.readouterr().err.startswith(
            "stretchfit: error: standardization overflows (overflow encountered in square)")
        assert not out.exists()

    def test_non_finite_errors_are_usage_error(self, tmp_path, capsys):
        # At eta 1e308 the noise is finite but the squared gaps overflow.
        out = tmp_path / "r.json"
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            code = main(["experiment", "--model", "poly", "--beta", "0.4", "--eta", "1e308",
                         "--reps", "2", "--out", str(out)])
        assert code == 2
        assert capsys.readouterr().err == (
            "stretchfit: error: trial 0 has a non-finite lsm_error2 (inf)\n")
        assert not out.exists()

    @pytest.mark.parametrize("model, xmax, message", [
        # x**2 + x + 2 overflows on [0, 1e160].
        ("poly", "1e160", "the truth overflows on the domain (0.0, 1e+160)"),
        ("sin", "1e-310", "abscissa span 1e-310 is too short"),
    ], ids=["truth-overflow", "short-span"])
    def test_unusable_domain_is_usage_error(self, tmp_path, capsys, model, xmax, message):
        out = tmp_path / "r.json"
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            code = main(["experiment", "--model", model, "--beta", "0.4", "--eta", "30",
                         "--reps", "3", "--xmax", xmax, "--out", str(out)])
        assert code == 2
        assert capsys.readouterr().err.startswith(f"stretchfit: error: {message}")
        assert not out.exists()

    @pytest.mark.parametrize("flags", [["--eta", "1e155"], ["--eta", "1e308"]],
                             ids=["eta1e155", "eta1e308"])
    def test_overflowing_sinusoid_fit_is_usage_error(self, tmp_path, capsys, flags):
        # Ordinates near 1e155 overflow their sum of squares.
        out = tmp_path / "r.json"
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            code = main(["experiment", "--model", "sin", "--beta", "0.4", *flags,
                         "--reps", "2", "--out", str(out)])
        assert code == 2
        assert capsys.readouterr().err.startswith("stretchfit: error: sinusoid fit overflows (")
        assert not out.exists()


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

    @pytest.mark.parametrize("token", ["poly:b0.4:e30", "sin:b0.8:e50"])
    def test_figure_ordinates_are_the_representative_trial(self, tmp_path, token):
        # The figure's noisy ordinates come from the batch; they must be the
        # bits the representative trial draws alone from its own stream.
        outdir = tmp_path / "tables"
        assert main(["tables", "--reps", "9", "--seed", "3",
                     "--configs", token, "--out", str(outdir)]) == 0
        k = json.loads((outdir / "manifest.json").read_text())["summaries"][token][
            "representative_trial"]
        cfg = dict(benchmark_grid(3))[token]
        figure = (outdir / f"figure_{token.replace(':', '_')}.csv").read_text().splitlines()
        y_noisy = np.array([float(line.split(",")[1]) for line in figure[1:]])
        truth = predict(cfg.truth_model, cfg.truth_params, np.linspace(*cfg.x_domain, cfg.n))
        expected, following = (experiment._add_noise(cfg, truth, [trial_rng(cfg.seed, i)])[0]
                               for i in (k, k + 1))
        assert y_noisy.tobytes() == expected.tobytes()
        assert y_noisy.tobytes() != following.tobytes()

    def test_all_trials_failed_is_numerical_failure(self, tmp_path, capsys, failing_fit):
        code = main(["tables", "--configs", "poly:b0.4:e30", "--reps", "3",
                     "--out", str(tmp_path / "t")])
        assert code == 4
        err = capsys.readouterr().err
        assert "synthetic failure" in err
        assert "Traceback" not in err

    @pytest.mark.parametrize("eta", [0.0, 30.0])
    def test_representative_trial_is_the_stable_median(self, eta):
        # Ties decide the pick: at eta 0 every trial has the same errors, and
        # errors rounded to 2 decimals take a few values, each for many trials.
        report = run_monte_carlo(grid_config("poly", 0.4, eta, seed=2), 101)
        report = dataclasses.replace(report, errors=np.round(report.errors, 2))
        ranked = sorted(range(101), key=report.errors[:, 3].tolist().__getitem__)
        assert _representative_trial(report) == ranked[50]

    @pytest.mark.parametrize("argv, message", [
        (["tables", "--configs", "poly:b0.9:e30"], "unknown --configs ['poly:b0.9:e30']"),
        (["tables", "--configs", "", "--reps", "2"], "unknown --configs ['']"),
        (["sample", "-n", "3", "--config="], "--config needs a file path"),
    ], ids=["unknown", "empty-configs", "empty-config-path"])
    def test_unknown_config_rejected(self, tmp_path, capsys, argv, message):
        # An empty value is an error, not the option's absence.
        out = tmp_path / "t"
        code = main([*argv, "--out", str(out)])
        assert code == 2
        assert message in capsys.readouterr().err
        assert not out.exists()

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

    def test_config_does_not_outlive_its_call(self, tmp_path):
        # The parser is built once per process; a --config file must not
        # leave its defaults in it for the next call.
        cfg = tmp_path / "cfg.json"
        cfg.write_text(json.dumps({"reps": 4, "seed": 5}))
        first, second = tmp_path / "first", tmp_path / "second"
        assert main(["tables", "--configs", "poly:b0.4:e30", "--out", str(first),
                     "--config", str(cfg)]) == 0
        assert main(["tables", "--configs", "poly:b0.4:e30", "--out", str(second)]) == 0
        manifest = strict_json((second / "manifest.json").read_text())["manifest"]
        assert (manifest["config"]["reps"], manifest["seed"]) == (100, 0)

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

    def test_float_entry_too_large_for_a_double_rejected(self, tmp_path, capsys):
        cfg = tmp_path / "cfg.json"
        cfg.write_text('{"eta": 1' + "0" * 400 + "}")
        out = tmp_path / "r.json"
        code = main(["experiment", "--model", "poly", "--beta", "0.4", "--reps", "2",
                     "--out", str(out), "--config", str(cfg)])
        assert code == 2
        err = capsys.readouterr().err
        assert "--config key 'eta' is too large for a double" in err
        assert "Traceback" not in err
        assert not out.exists()

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

    def test_config_sets_required_options(self, tmp_path):
        cfg = tmp_path / "cfg.json"
        cfg.write_text(json.dumps({"model": "poly", "beta": 0.4, "eta": 30, "reps": 3}))
        from_config, from_flags = tmp_path / "config.json", tmp_path / "flags.json"
        assert main(["experiment", "--config", str(cfg), "--out", str(from_config)]) == 0
        assert main(["experiment", "--model", "poly", "--beta", "0.4", "--eta", "30",
                     "--reps", "3", "--out", str(from_flags)]) == 0
        assert (from_config.read_text().replace(str(from_config), str(from_flags))
                == from_flags.read_text())

    def test_flag_beats_required_config_entry(self, tmp_path):
        cfg = tmp_path / "cfg.json"
        cfg.write_text(json.dumps({"model": "sin", "beta": 0.4, "eta": 30, "reps": 2}))
        out = tmp_path / "r.json"
        assert main(["experiment", "--model", "poly", "--config", str(cfg),
                     "--out", str(out)]) == 0
        report = strict_json(out.read_text())
        assert report["config"] == "poly:b0.4:e30"
        assert report["manifest"]["config"]["model"] == "poly"

    def test_null_required_entry_is_usage_error(self, tmp_path, capsys):
        cfg = tmp_path / "cfg.json"
        cfg.write_text(json.dumps({"model": None, "beta": 0.4, "eta": 30}))
        out = tmp_path / "r.json"
        with pytest.raises(SystemExit) as exit_info:
            main(["experiment", "--config", str(cfg), "--out", str(out)])
        assert exit_info.value.code == 2
        err = capsys.readouterr().err
        assert "the following arguments are required: --model" in err
        assert "Traceback" not in err
        assert not out.exists()


def read_manifest(path):
    """The manifest of an output file: the header line of a sample file, else its JSON."""
    text = path.read_text()
    if text.startswith("# manifest "):
        return json.loads(text.splitlines()[0][len("# manifest "):])
    return json.loads(text)["manifest"]


def own_options(command):
    """The option names of ``command`` that are not shared by every subcommand."""
    actions = build_parser()[1][command]._actions
    shared = {"help", "seed", "out", "threads", "config"}
    return {a.dest for a in actions if a.option_strings} - shared


@pytest.fixture
def sinusoid_csv(tmp_path):
    x = np.linspace(0.0, 10.0, 300)
    y = np.sin(x) + 0.2 * np.sin(7.3 * np.arange(300))
    path = tmp_path / "sin.csv"
    path.write_text("x,y\n" + "".join(f"{a!r},{b!r}\n" for a, b in zip(x.tolist(), y.tolist())))
    return path


class TestManifestReplay:
    """Rerunning a command from its manifest reproduces its output bit for bit."""

    @pytest.mark.parametrize("argv", [
        ["sample", "--method", "exact", "-n", "1001", "--seed", "4"],
        ["sample", "-n", "1000", "--beta", "0.4", "--alpha", "0.5", "-D", "0.3", "-t", "2",
         "--seed", "5"],
        ["fit", "--input", "{poly}", "--model", "poly2"],
        ["fit", "--input", "{poly}", "--model", "poly2", "--method", "stretched",
         "--beta", "0.4"],
        ["fit", "--input", "{sin}", "--model", "sin"],
        ["fit", "--input", "{sin}", "--model", "sin", "--method", "stretched", "--beta", "0.4"],
        ["experiment", "--model", "poly", "--beta", "0.8", "--eta", "50", "--reps", "20",
         "--seed", "7"],
        ["experiment", "--model", "sin", "--beta", "0.4", "--eta", "30", "-n", "300",
         "--reps", "3", "--xmax", "2"],
    ], ids=["sample-exact", "sample-rejection", "fit-poly2-lsm", "fit-poly2-stretched",
            "fit-sin-lsm", "fit-sin-stretched", "experiment-poly", "experiment-sin"])
    def test_config_replays_to_the_same_bytes(self, tmp_path, quadratic_csv, sinusoid_csv,
                                               argv):
        argv = [a.format(poly=quadratic_csv, sin=sinusoid_csv) for a in argv]
        first, second = tmp_path / "first.out", tmp_path / "second.out"
        code = main(argv + ["--out", str(first)])
        assert code in (0, 3)
        manifest = read_manifest(first)
        assert manifest["command"] == argv[0]
        assert manifest["outputs"] == [str(first)]
        assert set(manifest["config"]) == own_options(argv[0])

        cfg = tmp_path / "manifest_config.json"
        cfg.write_text(json.dumps(manifest["config"]))
        assert main([argv[0], "--config", str(cfg), "--seed", str(manifest["seed"]),
                     "--out", str(second)]) == code
        # The output path is written once, in the manifest's outputs.
        before, after = (json.dumps(str(path)).encode() for path in (first, second))
        assert first.read_bytes().count(before) == 1
        assert second.read_bytes() == first.read_bytes().replace(before, after)

    def test_tables_manifest_replays_to_the_same_bytes(self, tmp_path):
        first = tmp_path / "first"
        assert main(["tables", "--reps", "4", "--seed", "3",
                     "--configs", "sin:b0.8:e50,poly:b0.4:e30", "--out", str(first)]) == 0
        manifest = strict_json((first / "manifest.json").read_text())["manifest"]
        config = manifest["config"]
        assert set(config) == own_options("tables") | {"out"}
        assert config["configs"] == ["poly:b0.4:e30", "sin:b0.8:e50"]
        assert config["out"] == str(first)

        second = tmp_path / "second"
        assert main(["tables", "--reps", str(config["reps"]), "--configs",
                     ",".join(config["configs"]), "--seed", str(manifest["seed"]),
                     "--out", str(second)]) == 0
        names = sorted(p.name for p in first.iterdir())
        assert names == sorted(p.name for p in second.iterdir())
        for name in names:
            expected = (first / name).read_text().replace(str(first), str(second))
            assert (second / name).read_text() == expected, name
