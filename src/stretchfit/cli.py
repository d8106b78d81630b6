"""Command line front end: sample, fit, experiment, tables.

Every run resolves its full configuration into a manifest that is embedded
in (or written next to) each output file, so any output can be reproduced
bit for bit from the manifest alone.  Exit codes: 0 success, 2 usage or
input error, 3 non-convergence (result still written), 4 numerical failure.
"""

from __future__ import annotations

import argparse
import json
import sys
from dataclasses import asdict, dataclass
from pathlib import Path

import numpy as np

from . import __version__
from .distribution import SamplerFailureError, StretchedGaussian, sample_exact, sample_rejection
from .experiment import (
    ERROR_COLUMNS,
    TrialConfig,
    benchmark_grid,
    config_token,
    grid_config,
    make_noisy_dataset,
    run_monte_carlo,
    trial_rng,
)
from .lsq import Dataset, FitResult, ModelSpec, SingularFitError, fit
from .stretched import StageFailure, stretched_fit

EXIT_OK = 0
EXIT_USAGE = 2
EXIT_NONCONVERGED = 3
EXIT_NUMERICAL = 4


def _fmt(x: float) -> str:
    """17 significant digits: parses back to the same double, stays stable."""
    return format(float(x), ".17g")


@dataclass(frozen=True)
class RunManifest:
    command: str
    seed: int
    config: dict
    outputs: tuple[str, ...]
    tool: str = "stretchfit"
    version: str = __version__

    def to_json(self, indent: int | None = 2) -> str:
        return json.dumps(asdict(self), indent=indent, sort_keys=True)


def _write_text(path: Path, content: str) -> None:
    path.parent.mkdir(parents=True, exist_ok=True)
    path.write_text(content, encoding="utf-8")


def _write_csv(path: Path, header: list[str], rows: list[list]) -> None:
    lines = [",".join(header)]
    for row in rows:
        lines.append(",".join(_fmt(v) if isinstance(v, float) else str(v) for v in row))
    _write_text(path, "\n".join(lines) + "\n")


def _fit_dict(result: FitResult) -> dict:
    model = result.model.family if result.model.degree is None else f"poly{result.model.degree}"
    return {
        "model": model,
        "params": [float(v) for v in result.params],
        "sse": float(result.sse),
        "iterations": int(result.iterations),
        "converged": bool(result.converged),
        "stop_reason": result.stop_reason,
    }


# ---------------------------------------------------------------------------
# sample
# ---------------------------------------------------------------------------

def cmd_sample(args) -> int:
    law = StretchedGaussian(
        alpha=args.alpha, beta=args.beta, diffusivity=args.diffusivity, time=args.time
    )
    if args.count < 1:
        raise ValueError(f"sample count must be at least 1, got {args.count}")
    rng = np.random.default_rng(args.seed)
    draw = sample_exact if args.method == "exact" else sample_rejection
    samples = draw(law, rng, args.count)

    out = Path(args.out or "samples.txt")
    manifest = RunManifest(
        command="sample",
        seed=args.seed,
        config={
            "alpha": args.alpha,
            "beta": args.beta,
            "diffusivity": args.diffusivity,
            "time": args.time,
            "count": args.count,
            "method": args.method,
        },
        outputs=(str(out),),
    )
    body = "\n".join(_fmt(v) for v in samples)
    _write_text(out, "# manifest " + manifest.to_json(indent=None) + "\n" + body + "\n")
    return EXIT_OK


# ---------------------------------------------------------------------------
# fit
# ---------------------------------------------------------------------------

def _parse_model(token: str) -> ModelSpec:
    if token == "sin":
        return ModelSpec.sinusoid()
    if token.startswith("poly"):
        try:
            return ModelSpec.polynomial(int(token[4:]))
        except ValueError:
            pass
    raise ValueError(f"unknown model {token!r}; expected 'sin' or 'poly<degree>'")


def _read_xy_csv(path: Path) -> Dataset:
    try:
        text = path.read_text(encoding="utf-8")
    except OSError as exc:
        raise ValueError(f"cannot read {path}: {exc}") from exc
    xs, ys = [], []
    for lineno, line in enumerate(text.splitlines(), start=1):
        line = line.strip()
        if not line or line.startswith("#"):
            continue
        cells = line.split(",")
        if lineno == 1 and cells[:2] == ["x", "y"]:
            continue
        if len(cells) < 2:
            raise ValueError(f"{path}:{lineno}: expected two comma-separated columns")
        try:
            xs.append(float(cells[0]))
            ys.append(float(cells[1]))
        except ValueError as exc:
            raise ValueError(f"{path}:{lineno}: non-numeric cell") from exc
    if not xs:
        raise ValueError(f"{path}: no data rows")
    return Dataset(np.asarray(xs), np.asarray(ys))


def cmd_fit(args) -> int:
    data = _read_xy_csv(Path(args.input))
    model = _parse_model(args.model)
    if args.method == "stretched" and args.beta is None:
        raise ValueError("--beta is required with --method stretched")

    out = Path(args.out or "fit.json")
    manifest = RunManifest(
        command="fit",
        seed=args.seed,
        config={
            "input": str(args.input),
            "model": args.model,
            "method": args.method,
            "beta": args.beta,
        },
        outputs=(str(out),),
    )

    code = EXIT_OK
    if args.method == "lsm":
        result = fit(model, data)
        report = {"manifest": json.loads(manifest.to_json()), "method": "lsm", **_fit_dict(result)}
        if not result.converged:
            code = EXIT_NONCONVERGED
    else:
        sf = stretched_fit(model, data, args.beta)
        report = {
            "manifest": json.loads(manifest.to_json()),
            "method": "stretched",
            **_fit_dict(sf.final),
            "stages": {
                "beta": sf.beta,
                "transition": _fit_dict(sf.transition),
                "final": _fit_dict(sf.final),
            },
        }
        if not sf.converged:
            code = EXIT_NONCONVERGED

    _write_text(out, json.dumps(report, indent=2, sort_keys=True) + "\n")
    return code


# ---------------------------------------------------------------------------
# experiment
# ---------------------------------------------------------------------------

def _report_dict(token: str, report) -> dict:
    return {
        "config": token,
        "repetitions": report.repetitions,
        "excluded": len(report.failures),
        "failures": [{"trial": i, "error": msg} for i, msg in report.failures],
        "win_rate_error1": report.win_rate_error1,
        "win_rate_error2": report.win_rate_error2,
        "ties_error1": report.ties_error1,
        "ties_error2": report.ties_error2,
        "medians": report.medians,
        "iqrs": report.iqrs,
        "trials": [
            {
                "trial": t.seed[1],
                "lsm_error1": t.lsm_error1,
                "lsm_error2": t.lsm_error2,
                "slsm_error1": t.slsm_error1,
                "slsm_error2": t.slsm_error2,
                "lsm_converged": bool(t.lsm_fit.converged),
                "slsm_converged": bool(t.slsm_fit.converged),
            }
            for t in report.trials
        ],
    }


def cmd_experiment(args) -> int:
    cfg = grid_config(
        args.model, args.beta, args.eta, seed=args.seed,
        n=args.n, x_domain=(args.xmin, args.xmax),
    )
    report = run_monte_carlo(cfg, args.reps, threads=args.threads)
    token = config_token(args.model, args.beta, args.eta)
    out = Path(args.out or f"experiment_{token.replace(':', '_')}.json")
    manifest = RunManifest(
        command="experiment",
        seed=args.seed,
        config={
            "model": args.model, "beta": args.beta, "eta": args.eta,
            "n": args.n, "xmin": args.xmin, "xmax": args.xmax, "reps": args.reps,
        },
        outputs=(str(out),),
    )
    payload = {"manifest": json.loads(manifest.to_json()), **_report_dict(token, report)}
    _write_text(out, json.dumps(payload, indent=2, sort_keys=True) + "\n")
    return EXIT_OK


# ---------------------------------------------------------------------------
# tables
# ---------------------------------------------------------------------------

def _representative_trial(report):
    """The successful trial whose stretched RMS error is the run median."""
    ranked = sorted(report.trials, key=lambda t: t.slsm_error2)
    return ranked[(len(ranked) - 1) // 2]


def _table_rows(cfg: TrialConfig, trial) -> tuple[list[str], list[list]]:
    sin = cfg.truth_model.family == "sinusoid"
    header = ["method", "a", "b", "c"] + (["d"] if sin else []) + ["error1", "error2"]
    rows = [
        ["f", *[float(v) for v in cfg.truth_params], 0.0, 0.0],
        ["LSM", *[float(v) for v in trial.lsm_fit.params],
         trial.lsm_error1, trial.lsm_error2],
        ["Stretched-LSM", *[float(v) for v in trial.slsm_fit.final.params],
         trial.slsm_error1, trial.slsm_error2],
    ]
    return header, rows


def cmd_tables(args) -> int:
    outdir = Path(args.out or "tables")
    grid = benchmark_grid(args.seed)
    if args.configs:
        wanted = set(args.configs.split(","))
        known = {token for token, _ in grid}
        unknown = wanted - known
        if unknown:
            raise ValueError(f"unknown configs: {sorted(unknown)}; known: {sorted(known)}")
        grid = [(token, cfg) for token, cfg in grid if token in wanted]

    outputs: list[str] = []
    summaries: dict[str, dict] = {}
    for token, cfg in grid:
        report = run_monte_carlo(cfg, args.reps, threads=args.threads)
        stem = token.replace(":", "_")
        rep = _representative_trial(report)

        header, rows = _table_rows(cfg, rep)
        table_path = outdir / f"table_{stem}.csv"
        _write_csv(table_path, header, rows)

        summary_path = outdir / f"summary_{stem}.csv"
        summary_header = ["config", "repetitions", "excluded",
                          "win_rate_error1", "win_rate_error2", "ties_error1", "ties_error2"]
        summary_row: list = [token, report.repetitions, len(report.failures),
                             float(report.win_rate_error1), float(report.win_rate_error2),
                             report.ties_error1, report.ties_error2]
        for col in ERROR_COLUMNS:
            summary_header += [f"median_{col}", f"iqr_{col}"]
            summary_row += [report.medians[col], report.iqrs[col]]
        _write_csv(summary_path, summary_header, [summary_row])

        data = make_noisy_dataset(cfg, trial_rng(*rep.seed))
        truth = cfg.truth_function()(data.x)
        f_lsm = rep.lsm_fit.predict(data.x)
        f_slsm = rep.slsm_fit.predict(data.x)
        figure_path = outdir / f"figure_{stem}.csv"
        _write_csv(
            figure_path,
            ["x", "y_noisy", "f_true", "F_lsm", "F_slsm"],
            [[float(a), float(b), float(c), float(d), float(e)]
             for a, b, c, d, e in zip(data.x, data.y, truth, f_lsm, f_slsm)],
        )

        outputs += [str(table_path), str(summary_path), str(figure_path)]
        summaries[token] = {
            "representative_trial": rep.seed[1],
            "win_rate_error1": report.win_rate_error1,
            "win_rate_error2": report.win_rate_error2,
            "medians": report.medians,
            "excluded": len(report.failures),
        }

    manifest = RunManifest(
        command="tables",
        seed=args.seed,
        config={
            "reps": args.reps,
            "configs": sorted(token for token, _ in grid),
            "out": str(outdir),
        },
        outputs=tuple(outputs),
    )
    payload = {"manifest": json.loads(manifest.to_json()), "summaries": summaries}
    _write_text(outdir / "manifest.json", json.dumps(payload, indent=2, sort_keys=True) + "\n")
    return EXIT_OK


# ---------------------------------------------------------------------------
# wiring
# ---------------------------------------------------------------------------

def build_parser() -> tuple[argparse.ArgumentParser, dict[str, argparse.ArgumentParser]]:
    """The top-level parser and the parser of each subcommand, by name."""
    common = argparse.ArgumentParser(add_help=False)
    common.add_argument("--seed", type=int, default=0, help="base random seed")
    common.add_argument("--out", type=str, default=None, help="output path")
    common.add_argument("--threads", type=int, default=1, help="worker threads")
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
    p.add_argument("--model", choices=("poly", "sin"), required=True)
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
        value = float(value)
    if type(value) is not kind:
        raise ValueError(
            f"--config key {key!r} must be a JSON {kind.__name__}, got {value!r}")
    if action.choices is not None and value not in action.choices:
        raise ValueError(f"--config key {key!r} must be one of {list(action.choices)}")
    return value


def _config_defaults(path: str, command: argparse.ArgumentParser) -> dict:
    """Entries of a --config file, checked against the subcommand's options."""
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
    return {key: _config_value(key, value, options[key]) for key, value in entries.items()}


def main(argv=None) -> int:
    parser, commands = build_parser()
    args = parser.parse_args(argv)
    try:
        if args.config:
            # Config entries become defaults, so flags given explicitly win.
            command = commands[args.command]
            command.set_defaults(**_config_defaults(args.config, command))
            args = parser.parse_args(argv)
        return args.func(args)
    except (ValueError, OSError) as exc:
        print(f"stretchfit: error: {exc}", file=sys.stderr)
        return EXIT_USAGE
    except StageFailure as exc:
        print(f"stretchfit: {exc}", file=sys.stderr)
        return EXIT_NUMERICAL
    except (SingularFitError, SamplerFailureError, np.linalg.LinAlgError) as exc:
        print(f"stretchfit: numerical failure: {exc}", file=sys.stderr)
        return EXIT_NUMERICAL


if __name__ == "__main__":
    sys.exit(main())
