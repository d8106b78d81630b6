"""Command line front end: sample, fit, experiment, tables.

Every run resolves its full configuration into a manifest that is embedded
in (or written next to) each output file, so any output can be reproduced
bit for bit from the manifest alone.  Exit codes: 0 success, 2 usage or
input error, 3 non-convergence (result still written), 4 numerical failure.
"""

from __future__ import annotations

import argparse
import functools
import io
import json
import os
import stat
import sys
import warnings
from pathlib import Path

import numpy as np

from . import __version__
from .distribution import SamplerFailureError, StretchedGaussian, sample_exact, sample_rejection
from .experiment import (
    ERROR_COLUMNS,
    TRUTHS,
    ExperimentReport,
    benchmark_grid,
    config_token,
    grid_config,
    run_monte_carlo,
)
from .lsq import FitBatch, ModelSpec, SingularFitError, fit_batch, predict
from .stretched import stretched_fit_batch

EXIT_OK = 0
EXIT_USAGE = 2
EXIT_NONCONVERGED = 3
EXIT_NUMERICAL = 4


def _fmt(x: float) -> str:
    """17 significant digits: parses back to the same double, stays stable."""
    return format(float(x), ".17g")


# The options every subcommand shares, and argparse's own entries.
_NOT_CONFIG = ("seed", "out", "threads", "config", "command", "func")


def _manifest(args, outputs: list[str], **resolved) -> dict:
    """The run's manifest; its config is every other option, with ``resolved`` values."""
    config = {key: value for key, value in vars(args).items() if key not in _NOT_CONFIG}
    return {"tool": "stretchfit", "version": __version__, "command": args.command,
            "seed": args.seed, "config": {**config, **resolved}, "outputs": outputs}


def _write_text(path: Path, content: str) -> None:
    path.parent.mkdir(parents=True, exist_ok=True)
    path.write_text(content, encoding="utf-8")


def _write_csv(path: Path, header: list[str], rows: list[list]) -> None:
    lines = [",".join(header)]
    for row in rows:
        lines.append(",".join(_fmt(v) if isinstance(v, float) else str(v) for v in row))
    _write_text(path, "\n".join(lines) + "\n")


def _fit_dict(batch: FitBatch) -> dict:
    """The first fit of ``batch`` as a report entry."""
    model = batch.model.family if batch.model.degree is None else f"poly{batch.model.degree}"
    return {
        "model": model,
        "params": batch.params[0].tolist(),
        "sse": float(batch.sse[0]),
        "iterations": int(batch.iterations[0]),
        "converged": bool(batch.converged[0]),
        "stop_reason": batch.stop_reasons[0],
    }


# ---------------------------------------------------------------------------
# sample
# ---------------------------------------------------------------------------

def cmd_sample(args) -> int:
    law = StretchedGaussian(
        alpha=args.alpha, beta=args.beta, diffusivity=args.diffusivity, time=args.time
    )
    rng = np.random.default_rng(args.seed)
    draw = sample_exact if args.method == "exact" else sample_rejection
    samples = draw(law, rng, args.count)

    out = Path(args.out or "samples.txt")
    manifest = _manifest(args, [str(out)])
    body = "\n".join(_fmt(v) for v in samples)
    header = "# manifest " + json.dumps(manifest, sort_keys=True, allow_nan=False)
    _write_text(out, header + "\n" + body + "\n")
    return EXIT_OK


# ---------------------------------------------------------------------------
# fit
# ---------------------------------------------------------------------------

def _parse_model(token: str) -> ModelSpec:
    if token == "sin":
        return ModelSpec.sinusoid()
    degree = token[4:]
    if token.startswith("poly") and degree.isascii() and degree.isdigit():
        return ModelSpec.polynomial(int(degree))
    raise ValueError(f"unknown model {token!r}; expected 'sin' or 'poly<degree>'")


def _xy_rows(lines) -> np.ndarray:
    """Columns 0 and 1 of ``lines`` as an (m, 2) array; ValueError on a bad row."""
    # lstrip lets numpy skip whitespace-only and indented comment lines.
    return np.loadtxt(map(str.lstrip, lines), delimiter=",", comments="#",
                      usecols=(0, 1), ndmin=2)


def _problem(lines) -> str | None:
    """Why ``lines`` of a fit input are rejected; None when every row parses finite."""
    try:
        rows = _xy_rows(lines)
    except ValueError:
        return "non-numeric cell or missing column"
    return None if np.isfinite(rows).all() else "non-finite cell"


def _first_bad_line(lines: list[str], start: int) -> tuple[int, str]:
    """1-based number of the first of ``lines[start:]`` that is rejected, and why.

    Bisection: ``lines[lo:hi]`` holds a bad line, and no line before ``lo`` is bad.
    """
    lo, hi = start, len(lines)
    while hi - lo > 1:
        mid = (lo + hi) // 2
        if _problem(lines[lo:mid]):
            hi = mid
        else:
            lo = mid
    return lo + 1, _problem(lines[lo:hi])


# np.loadtxt opens a str path through np.lib._datasource, which decompresses
# names with these suffixes instead of reading the file as written.
_DECOMPRESSED_SUFFIXES = (".gz", ".bz2", ".xz", ".lzma")


def _text(data: bytes) -> io.TextIOWrapper:
    """``data`` as ``open(path, encoding="utf-8-sig")`` reads it: BOM dropped, newlines unified."""
    return io.TextIOWrapper(io.BytesIO(data), encoding="utf-8-sig")


def _read_xy_csv(path: Path) -> tuple[np.ndarray, np.ndarray]:
    """Columns 0 and 1 of a comma-separated file; see README *Fit input*.

    numpy reads a plain regular file by its path, in large chunks; every
    other input, and a file that numpy rejects, is read line by line.
    """
    try:
        with open(path, "rb") as f:
            # numpy reopens the file by its path, which gives these bytes
            # again only for a regular file; a pipe's are already read.
            regular = stat.S_ISREG(os.fstat(f.fileno()).st_mode)
            data = f.read()
        with warnings.catch_warnings():
            # An empty file (or line) is reported below, not as a warning.
            warnings.filterwarnings("ignore", "loadtxt: input contained no data")
            header = int(_text(data).readline().strip().split(",")[:2] == ["x", "y"])
            xy = None
            if regular and path.suffix not in _DECOMPRESSED_SUFFIXES:
                try:
                    xy = np.loadtxt(os.path.abspath(path), delimiter=",", comments="#",
                                    usecols=(0, 1), ndmin=2, skiprows=header,
                                    encoding="utf-8-sig")
                except ValueError:
                    pass
            if xy is None:
                lines = _text(data)
                if header:
                    lines.readline()
                try:
                    xy = _xy_rows(lines)
                except ValueError:
                    pass
            if xy is None or not np.isfinite(xy).all():
                # Error path only: parse the lines again to name the bad one.
                line, problem = _first_bad_line(_text(data).readlines(), header)
                raise ValueError(f"{path}:{line}: {problem}")
    except (OSError, UnicodeDecodeError) as exc:
        raise ValueError(f"cannot read {path}: {exc}") from exc
    if not xy.size:
        raise ValueError(f"{path}: no data rows")
    # Contiguous copies: strided column views would change the fits' summation order.
    x, y = xy.T.copy()
    return x, y


def cmd_fit(args) -> int:
    model = _parse_model(args.model)
    if args.method == "stretched" and args.beta is None:
        raise ValueError("--beta is required with --method stretched")
    x, y = _read_xy_csv(Path(args.input))

    out = Path(args.out or "fit.json")
    manifest = _manifest(args, [str(out)])

    if args.method == "lsm":
        result = fit_batch(model, x, y[None])
        report = {"manifest": manifest, "method": "lsm", **_fit_dict(result)}
        converged = result.converged[0]
    else:
        transition, final = stretched_fit_batch(model, x, y[None], args.beta)
        report = {
            "manifest": manifest,
            "method": "stretched",
            **_fit_dict(final),
            "stages": {
                "beta": args.beta,
                "transition": _fit_dict(transition),
                "final": _fit_dict(final),
            },
        }
        converged = transition.converged[0] and final.converged[0]

    _write_text(out, json.dumps(report, indent=2, sort_keys=True, allow_nan=False) + "\n")
    return EXIT_OK if converged else EXIT_NONCONVERGED


# ---------------------------------------------------------------------------
# experiment
# ---------------------------------------------------------------------------

# A trial record as json.dumps(indent=2, sort_keys=True) writes it in the
# "trials" list, keys sorted; str() of a finite float is json's form of it.
_TRIAL_KEYS = ("lsm_converged", "lsm_error1", "lsm_error2",
               "slsm_converged", "slsm_error1", "slsm_error2", "trial")
_TRIAL_RECORD = "    {\n" + ",\n".join(f'      "{key}": %s' for key in _TRIAL_KEYS) + "\n    }"


def _experiment_json(payload: dict, report: ExperimentReport) -> str:
    """``payload`` and the report's trials as json.dumps(indent=2, sort_keys=True) writes them.

    Only the trial records, whose errors are finite, bypass json.dumps.
    """
    text = json.dumps({**payload, "trials": []}, indent=2, sort_keys=True, allow_nan=False)
    flags = [np.where(c, "true", "false").tolist()
             for c in (report.lsm.converged, report.slsm_converged)]
    records = ",\n".join(
        _TRIAL_RECORD % (lsm, e1, e2, slsm, s1, s2, i) for i, ((e1, e2, s1, s2), lsm, slsm)
        in enumerate(zip(report.errors.tolist(), *flags)))
    # Strings are escaped inside JSON, so only the top-level key matches.
    head, tail = text.split('\n  "trials": []')
    return f'{head}\n  "trials": [\n{records}\n  ]{tail}\n'


def cmd_experiment(args) -> int:
    cfg = grid_config(
        args.model, args.beta, args.eta, seed=args.seed,
        n=args.n, x_domain=(args.xmin, args.xmax),
    )
    report = run_monte_carlo(cfg, args.reps)
    token = config_token(args.model, args.beta, args.eta)
    out = Path(args.out or f"experiment_{token.replace(':', '_')}.json")
    payload = {"manifest": _manifest(args, [str(out)]), "config": token,
               **report.summary, "failures": []}
    _write_text(out, _experiment_json(payload, report))
    return EXIT_OK


# ---------------------------------------------------------------------------
# tables
# ---------------------------------------------------------------------------

def _representative_trial(report: ExperimentReport) -> int:
    """Row of the trial whose stretched RMS error is the median; ties rank by trial."""
    ranked = np.argsort(report.column("slsm_error2"), kind="stable")
    return int(ranked[(len(ranked) - 1) // 2])


def _table_rows(report: ExperimentReport, k: int) -> tuple[list[str], list[list]]:
    cfg = report.config
    header = ["method", *"abcd"[:cfg.truth_model.n_params], "error1", "error2"]
    e1, e2, s1, s2 = report.errors[k].tolist()
    return header, [
        ["f", *cfg.truth_params.tolist(), 0.0, 0.0],
        ["LSM", *report.lsm.params[k].tolist(), e1, e2],
        ["Stretched-LSM", *report.final.params[k].tolist(), s1, s2],
    ]


def cmd_tables(args) -> int:
    outdir = Path(args.out or "tables")
    grid = benchmark_grid(args.seed)
    if args.configs is not None:
        wanted = set(args.configs.split(","))
        known = {token for token, _ in grid}
        unknown = wanted - known
        if unknown:
            raise ValueError(f"unknown --configs {sorted(unknown)}; known: {sorted(known)}")
        grid = [(token, cfg) for token, cfg in grid if token in wanted]

    outputs: list[str] = []
    summaries: dict[str, dict] = {}
    for token, cfg in grid:
        report = run_monte_carlo(cfg, args.reps)
        stem = token.replace(":", "_")
        k = _representative_trial(report)

        header, rows = _table_rows(report, k)
        table_path = outdir / f"table_{stem}.csv"
        _write_csv(table_path, header, rows)

        summary = report.summary
        summary_path = outdir / f"summary_{stem}.csv"
        # The summary's numbers, then the median and IQR of each error column.
        numbers = {key: value for key, value in summary.items() if not isinstance(value, dict)}
        cells = {"config": token, **numbers}
        for col in ERROR_COLUMNS:
            cells |= {f"median_{col}": summary["medians"][col], f"iqr_{col}": summary["iqrs"][col]}
        _write_csv(summary_path, list(cells), [list(cells.values())])

        x = np.linspace(*cfg.x_domain, cfg.n)
        columns = [x, report.ordinates[k], predict(cfg.truth_model, cfg.truth_params, x),
                   predict(cfg.truth_model, report.lsm.params[k], x),
                   predict(cfg.truth_model, report.final.params[k], x)]
        figure_path = outdir / f"figure_{stem}.csv"
        _write_csv(figure_path, ["x", "y_noisy", "f_true", "F_lsm", "F_slsm"],
                   np.column_stack(columns).tolist())

        outputs += [str(table_path), str(summary_path), str(figure_path)]
        keys = ("win_rate_error1", "win_rate_error2", "medians", "excluded")
        summaries[token] = {"representative_trial": k, **{key: summary[key] for key in keys}}

    manifest = _manifest(args, outputs, configs=sorted(token for token, _ in grid),
                         out=str(outdir))
    payload = {"manifest": manifest, "summaries": summaries}
    _write_text(outdir / "manifest.json",
                json.dumps(payload, indent=2, sort_keys=True, allow_nan=False) + "\n")
    return EXIT_OK


# ---------------------------------------------------------------------------
# wiring
# ---------------------------------------------------------------------------

def build_parser() -> tuple[argparse.ArgumentParser, dict[str, argparse.ArgumentParser]]:
    """The top-level parser and the parser of each subcommand, by name."""
    common = argparse.ArgumentParser(add_help=False)
    common.add_argument("--seed", type=int, default=0, help="base random seed")
    common.add_argument("--out", type=str, default=None, help="output path")
    common.add_argument("--threads", type=int, default=1,
                        help="accepted for existing command lines; trials run serially")
    common.add_argument("--config", type=str, default=None,
                        help="JSON file whose entries override flag defaults")

    parser = argparse.ArgumentParser(
        prog="stretchfit",
        description="Fit data under stretched Gaussian noise and benchmark the methods",
    )
    parser.add_argument("--version", action="version", version=f"stretchfit {__version__}")
    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser("sample", parents=[common], help="draw stretched Gaussian variates")
    p.add_argument("--alpha", type=float, default=1.0)
    p.add_argument("--beta", type=float, default=1.0)
    p.add_argument("-D", "--diffusivity", type=float, default=0.25)
    p.add_argument("-t", "--time", type=float, default=1.0)
    p.add_argument("-n", "--count", type=int, required=True)
    p.add_argument("--method", choices=("exact", "rejection"), default="rejection")
    p.set_defaults(func=cmd_sample)

    p = sub.add_parser("fit", parents=[common], help="fit one CSV of (x, y) pairs")
    p.add_argument("--input", type=str, required=True, help="CSV with columns x,y")
    p.add_argument("--model", type=str, required=True, help="'poly<degree>' or 'sin'")
    p.add_argument("--method", choices=("lsm", "stretched"), default="lsm")
    p.add_argument("--beta", type=float, default=None)
    p.set_defaults(func=cmd_fit)

    p = sub.add_parser("experiment", parents=[common],
                       help="seeded Monte Carlo for one benchmark configuration")
    p.add_argument("--model", choices=tuple(TRUTHS), required=True)
    p.add_argument("--beta", type=float, required=True)
    p.add_argument("--eta", type=float, required=True)
    p.add_argument("--reps", type=int, default=100)
    p.add_argument("-n", type=int, default=200)
    p.add_argument("--xmin", type=float, default=0.0)
    p.add_argument("--xmax", type=float, default=1.0)
    p.set_defaults(func=cmd_experiment)

    p = sub.add_parser("tables", parents=[common],
                       help="benchmark tables, summaries, and figure point clouds")
    p.add_argument("--reps", type=int, default=100)
    p.add_argument("--configs", type=str, default=None,
                   help="comma-separated subset, e.g. poly:b0.4:e30")
    p.set_defaults(func=cmd_tables)
    return parser, sub.choices


def _config_value(key: str, value, action: argparse.Action):
    """``value`` checked against the type and choices of its option."""
    kind = action.type or str
    if value is None and action.default is None:
        return None
    if kind is float and isinstance(value, int) and not isinstance(value, bool):
        try:
            value = float(value)
        except OverflowError:
            raise ValueError(f"--config key {key!r} is too large for a double") from None
    if type(value) is not kind:
        raise ValueError(
            f"--config key {key!r} must be a JSON {kind.__name__}, got {value!r}")
    if action.choices is not None and value not in action.choices:
        raise ValueError(f"--config key {key!r} must be one of {list(action.choices)}")
    return value


def _apply_config(path: str, command: argparse.ArgumentParser) -> None:
    """Make the entries of a --config file the defaults of the subcommand's options.

    Flags given explicitly still win; a non-null entry satisfies a required option.
    """
    if not path:
        raise ValueError("--config needs a file path, got ''")
    try:
        entries = json.loads(Path(path).read_text(encoding="utf-8"))
    except (OSError, json.JSONDecodeError) as exc:
        raise ValueError(f"cannot load --config {path}: {exc}") from exc
    if not isinstance(entries, dict):
        raise ValueError("--config must contain a JSON object")
    options = {a.dest: a for a in command._actions
               if a.option_strings and a.dest not in ("help", "config")}
    unknown = sorted(set(entries) - set(options))
    if unknown:
        raise ValueError(f"--config keys {unknown} are not options of this command")
    for key, value in entries.items():
        action = options[key]
        action.default = _config_value(key, value, action)
        if action.default is not None:
            action.required = False


@functools.lru_cache(maxsize=1)
def _shared_parser() -> tuple[argparse.ArgumentParser, dict[str, argparse.ArgumentParser]]:
    """The parser every call without --config uses; built once, never modified."""
    return build_parser()


@functools.lru_cache(maxsize=1)
def _config_lookup() -> argparse.ArgumentParser:
    """A parser of the subcommand and its --config path alone, which raises on errors."""
    lookup = argparse.ArgumentParser(add_help=False, exit_on_error=False)
    sub = lookup.add_subparsers(dest="command")
    for name in _shared_parser()[1]:
        sub.add_parser(name, add_help=False, exit_on_error=False).add_argument("--config")
    return lookup


def main(argv=None) -> int:
    parser = _shared_parser()[0]
    try:
        # The config may set required options, so it is found before the full
        # parse, which reports any usage error.
        found, _ = _config_lookup().parse_known_args(argv)
    except argparse.ArgumentError:
        found = None
    try:
        if getattr(found, "config", None) is not None:
            # Config entries go into a parser of this call's own, not into
            # the shared one.
            parser, commands = build_parser()
            _apply_config(found.config, commands[found.command])
        args = parser.parse_args(argv)
        if args.out == "":
            raise ValueError("--out needs a path, got ''")
        if args.threads < 1:
            raise ValueError(f"threads must be at least 1, got {args.threads}")
        return args.func(args)
    except (ValueError, OSError, MemoryError) as exc:
        print(f"stretchfit: error: {exc}", file=sys.stderr)
        return EXIT_USAGE
    except (SingularFitError, SamplerFailureError, np.linalg.LinAlgError) as exc:
        print(f"stretchfit: numerical failure: {exc}", file=sys.stderr)
        return EXIT_NUMERICAL


if __name__ == "__main__":
    sys.exit(main())
