"""stretchfit benchmark: end-to-end and per-layer metrics of three workloads.

Usage (from the root of a checkout):

    python3 perfbench/run.py --workload mc-poly|mc-sin|fit-file --seed N \
        --seconds S --trace 0|1

Every run starts fresh child processes (child.py) that import the package
from `src/`, warm up, and call `stretchfit.cli.main` in-process, one call at
a time (closed loop, one client, `--threads 1`, BLAS/OpenMP pinned to one
thread).  The inputs come from `--seed` alone.  Outputs are checked by
checks.py after the children exit, outside every timed region.

`--trace 0` reports the end-to-end metrics of BENCHMARK.json from untraced
calls; `--trace 1` makes a fixed number of calls, each cycle of them untraced
and then traced, and reports the per-layer metrics and the tracing overhead.  The last line
of standard output is the JSON result; the lines before it are the same
numbers for a reader.  Exit code 0 on a completed run, whatever the checks
found; 2 when the run itself could not be made.
"""

from __future__ import annotations

import os

# Pin the parent's own numpy too, before anything imports it.
_PINNED = {name: "1" for name in ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS",
                                  "MKL_NUM_THREADS", "NUMEXPR_NUM_THREADS")}
os.environ.update(_PINNED)

import argparse  # noqa: E402
import hashlib  # noqa: E402
import json  # noqa: E402
import math  # noqa: E402
import shutil  # noqa: E402
import statistics  # noqa: E402
import subprocess  # noqa: E402
import sys  # noqa: E402
import threading  # noqa: E402
from pathlib import Path  # noqa: E402
from time import perf_counter  # noqa: E402

import numpy as np  # noqa: E402

import checks  # noqa: E402
import workloads  # noqa: E402

HERE = Path(__file__).resolve().parent
RUN_DEADLINE_S = 170.0   # the whole run, children included
RERUN_CHILDREN = 4       # extra set-ups per untraced run; each reruns calls of the first cycle


class HarnessError(RuntimeError):
    """The run itself failed (not an op): no result is printed."""


# ---------------------------------------------------------------------------
# inputs
# ---------------------------------------------------------------------------

def _write_csv(path: Path, x: np.ndarray, y: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    # repr() round-trips doubles, so the arrays are exactly what the program parses.
    rows = "\n".join(f"{a!r},{b!r}" for a, b in zip(x.tolist(), y.tolist()))
    path.write_text("x,y\n" + rows + "\n", encoding="utf-8")
    return x, y


def _noise(rng: np.random.Generator, n: int) -> np.ndarray:
    """Standardized Laplace noise: the stretched Gaussian law at beta = 0.5."""
    e = rng.laplace(size=n)
    return (e - e.mean()) / e.std(ddof=1)


def write_inputs(workload: str, seed: int, smoke: bool, folder: Path) -> dict:
    """Write the workload's input files; returns {argv path: (x, y)} for the checks."""
    folder.mkdir(parents=True)
    files: dict[str, tuple[np.ndarray, np.ndarray]] = {}
    if workload != "fit-file":
        return files
    sizes = workloads.SMOKE_FILE_N if smoke else workloads.FILE_N

    def put(name: str, x: np.ndarray, y: np.ndarray) -> None:
        files[f"{workloads.INPUT_DIR}/{name}"] = _write_csv(folder / name, x, y)

    fixed = np.random.default_rng(0)
    x = np.linspace(0.0, 1.0, 200)
    put("warm_poly.csv", x, x**2 + x + 2.0 + 0.3 * _noise(fixed, x.size))
    x = np.linspace(0.0, 10.0, 200)
    put("warm_sin.csv", x, np.sin(x) + 0.3 * _noise(fixed, x.size))

    base = seed % 2**63
    for i in range(workloads.POLY_FILES):
        rng = np.random.default_rng([base, 0, i])
        x = np.linspace(0.0, 1.0, sizes["poly2"])
        coeffs = np.array([1.0, 1.0, 2.0]) + rng.uniform(-0.5, 0.5, 3)
        put(f"poly2_{i}.csv", x, np.polyval(coeffs, x) + 0.3 * _noise(rng, x.size))
    per_cycle = {kind: sum(1 for entry in workloads.FIT_CYCLE if entry[0] == kind)
                 for kind in ("wide", "unit")}
    for cycle in range(workloads.FILE_CYCLES):
        for i in range(per_cycle["wide"]):
            rng = np.random.default_rng([base, 1, cycle, i])
            x = np.linspace(0.0, 20.0, sizes["wide"])
            a, b = rng.uniform(1.0, 2.0), rng.uniform(0.6, 1.2)
            c, d = rng.uniform(-math.pi, math.pi), rng.uniform(-0.5, 0.5)
            y = checks.sinusoid((a, b, c, d), x) + 0.3 * a * _noise(rng, x.size)
            put(f"wide_{cycle}_{i}.csv", x, y)
        for i in range(per_cycle["unit"]):
            rng = np.random.default_rng([base, 2, cycle, i])
            x = np.linspace(0.0, 1.0, sizes["unit"])
            put(f"unit_{cycle}_{i}.csv", x, np.sin(x) + 0.3 * _noise(rng, x.size))
    return files


# ---------------------------------------------------------------------------
# children
# ---------------------------------------------------------------------------

def _child_env(root: Path) -> dict[str, str]:
    env = dict(os.environ)
    src = str(root / "src")
    env["PYTHONPATH"] = src + (os.pathsep + env["PYTHONPATH"] if env.get("PYTHONPATH") else "")
    env.update(_PINNED)
    env["PYTHONDONTWRITEBYTECODE"] = "1"
    env["PYTHONHASHSEED"] = "0"
    return env


def spawn(spec: dict, cwd: Path, root: Path, deadline: float) -> tuple[float, dict]:
    """Run one child; returns (set-up seconds, its result).

    Set-up runs from the spawn to the child's `ready` line: interpreter
    start, package import and the warm-up calls.
    """
    cwd.mkdir(parents=True, exist_ok=True)
    spec = dict(spec, result=str(cwd / "result.json"))
    (cwd / "spec.json").write_text(json.dumps(spec), encoding="utf-8")
    timeout = deadline - perf_counter()
    if timeout <= 0:
        raise HarnessError("out of time before a child could start")
    t0 = perf_counter()
    proc = subprocess.Popen([sys.executable, str(HERE / "child.py"), str(cwd / "spec.json")],
                            cwd=cwd, env=_child_env(root), stdout=subprocess.PIPE, text=True)
    killer = threading.Timer(timeout, proc.kill)
    killer.start()
    try:
        line = proc.stdout.readline()
        setup = perf_counter() - t0
        proc.communicate()
    finally:
        killer.cancel()
        if proc.poll() is None:
            proc.kill()
        proc.wait()
    if line.strip() != "ready" or proc.returncode != 0:
        raise HarnessError(f"child in {cwd.name} exited {proc.returncode} (timeout {timeout:.0f} s)")
    return setup, json.loads((cwd / "result.json").read_text(encoding="utf-8"))


def _read(path: Path) -> bytes | None:
    try:
        return path.read_bytes()
    except FileNotFoundError:
        return None


# ---------------------------------------------------------------------------
# checks
# ---------------------------------------------------------------------------

class References:
    """`checks.reference_sse`, computed once per distinct data set."""

    def __init__(self) -> None:
        self._cache: dict[bytes, float] = {}

    def __call__(self, x: np.ndarray, y: np.ndarray) -> float:
        key = hashlib.blake2b(x.tobytes() + y.tobytes()).digest()
        if key not in self._cache:
            self._cache[key] = checks.reference_sse(x, y)
        return self._cache[key]


def evaluate(workload: str, argvs: list[list[str]], codes: list[int],
             outputs: list[bytes | None], reruns: dict[int, tuple[int, bytes | None]],
             files: dict, references) -> dict:
    """Score every call: attempted and failed ops, problems, sinusoid SSE excesses.

    All ops of a call fail on a bad exit code, a missing or malformed
    output, a failed check, or an output that differs from a rerun of the
    same call; these are `problems`, and any problem makes the run
    incorrect.  A trial the program itself excluded is not a failed op: the
    `experiment` command's contract is to run every trial and report each
    as scored or excluded with its reason, and the checks verify that
    report (`excluded + len(trials) == reps`, byte-identical reruns).
    Excluded trials are counted apart, printed with every run and reported
    as `experiment.excluded` in the traced run; the non-convergence behind
    them also shows in `lsq.unconverged_share`.
    """
    attempted = failed = excluded = 0
    problems: list[str] = []
    excess: list[tuple[float, float]] = []
    for k, (argv, code, raw) in enumerate(zip(argvs, codes, outputs)):
        ops = int(checks.options(argv).get("--reps", 1))
        found: list[str] = []
        dropped = 0
        if code not in (0, 3):
            found.append(f"exit code {code}")
        if k in reruns and reruns[k] != (code, raw):
            found.append("output differs from a rerun of the same call")
        try:
            report = json.loads(raw) if raw is not None else None
        except ValueError:
            report = None
        try:
            if not isinstance(report, dict):
                found.append("output missing or not a JSON object")
            elif workload == "fit-file":
                fit_problems, fit_excess = checks.check_fit(
                    argv, code, report, files[checks.options(argv)["--input"]], references)
                found += fit_problems
                excess += fit_excess if not found else []
            else:
                exp_problems, dropped = checks.check_experiment(argv, code, report)
                found += exp_problems
        except (AttributeError, KeyError, TypeError, ValueError) as exc:
            found.append(f"output has an unexpected shape ({type(exc).__name__}: {exc})")
        attempted += ops
        failed += ops if found else 0
        excluded += 0 if found else min(dropped, ops)
        problems += [f"call {k} ({' '.join(argv[:2])}): {p}" for p in found]
    return {"attempted": attempted, "failed": failed, "excluded": excluded,
            "problems": problems, "excess": excess}


# ---------------------------------------------------------------------------
# metrics
# ---------------------------------------------------------------------------

def tail(latencies: list[float]) -> tuple[float, float]:
    """Highest percentile with at least 10 samples beyond it, and its value."""
    ordered = sorted(latencies)
    n = len(ordered)
    if n <= 10:
        return 100.0, ordered[-1]
    return 100.0 * (n - 10) / n, ordered[n - 11]


def untraced_run(workload: str, seed: int, seconds: float, smoke: bool, root: Path,
                 work: Path, deadline: float) -> tuple[dict, dict, list[str]]:
    files = write_inputs(workload, seed, smoke, work / "inputs")
    spec = {"workload": workload, "seed": seed, "smoke": smoke}
    setup, main = spawn(dict(spec, mode="timed", seconds=seconds), work / "main", root, deadline)
    calls = main["calls"]
    n = len(calls)
    first_cycle = min(n, workloads.cycle_length(workload))
    setups = [setup]
    reruns: dict[int, tuple[int, bytes | None]] = {}
    for i in range(RERUN_CHILDREN):
        ops = list(range(i, first_cycle, RERUN_CHILDREN))
        cwd = work / f"rerun{i}"
        setup, rerun = spawn(dict(spec, mode="rerun", ops=ops), cwd, root, deadline)
        setups.append(setup)
        for k, (code, _) in zip(ops, rerun["calls"]):
            reruns[k] = (code, _read(cwd / workloads.out_name(k)))

    argvs = [workloads.op_argv(workload, seed, k, smoke) for k in range(n)]
    outputs = [_read(work / "main" / workloads.out_name(k)) for k in range(n)]
    checked = perf_counter()
    result = evaluate(workload, argvs, [c for c, _ in calls], outputs, reruns, files, References())
    checked = perf_counter() - checked

    latencies = [dt for _, dt in calls]
    pct, tail_s = tail(latencies)
    sse_excess = max((rel for rel, _ in result["excess"]), default=0.0)
    sse_share = max((share for _, share in result["excess"]), default=0.0)
    metrics = {
        "setup_s": (statistics.median(setups), "s"),
        "ops_per_s": ((result["attempted"] - result["failed"]) / sum(latencies), "1/s"),
        "call_s_p50": (statistics.median(latencies), "s"),
        "call_s_tail": (tail_s, "s"),
        "peak_rss_mb": (main["peak_rss_mb"], "MB"),
        "sse_ratio": (1.0 + sse_share, "ratio"),
    }
    notes = [
        f"calls {n}, ops attempted {result['attempted']}, failed {result['failed']}, "
        f"failed_share {result['failed'] / result['attempted']:.6g}; "
        f"trials excluded by the program (reported, not failed): {result['excluded']}",
        (f"call_s_tail is p{pct:.1f} of {n} calls (10 beyond it)" if n > 10 else
         f"call_s_tail is the slowest of only {n} calls"),
        f"setup_s is the median of {len(setups)} set-ups; checking the outputs took "
        f"{checked:.1f} s",
        f"sse_excess {sse_excess:.6g} (relative to the reference SSE), "
        f"{sse_share:.6g} (share of total sum of squares) over "
        f"{len(result['excess'])} sinusoid fit stages"
        + ("" if workload == "fit-file" else "; this workload reports no sinusoid SSE"),
    ]
    return result, metrics, notes + result["problems"][:20]


def traced_run(workload: str, seed: int, seconds: float, smoke: bool, root: Path,
               work: Path, deadline: float) -> tuple[dict, dict, list[str]]:
    files = write_inputs(workload, seed, smoke, work / "inputs")
    count = workloads.cycle_length(workload) if smoke else workloads.traced_calls(workload, seconds)
    spec = {"workload": workload, "seed": seed, "smoke": smoke, "mode": "traced",
            "count": count, "traced_cwd": str(work / "traced")}
    (work / "traced").mkdir()
    _, res = spawn(spec, work / "untraced", root, deadline)

    argvs = [workloads.op_argv(workload, seed, k, smoke) for k in range(count)]
    untraced = {k: (code, _read(work / "untraced" / workloads.out_name(k)))
                for k, (code, _) in enumerate(res["calls"])}
    outputs = [_read(work / "traced" / workloads.out_name(k)) for k in range(count)]
    codes = [code for code, _ in res["traced_calls"]]
    result = evaluate(workload, argvs, codes, outputs, untraced, files, None)

    tr = res["trace"]
    calls, incl, self_s, entries, counts = (tr[k] for k in
                                            ("calls", "inclusive_s", "self_s", "entries", "counts"))

    def t(*names: str) -> float:
        return sum(incl.get(name, 0.0) for name in names)

    def share(num: float, den: float) -> float:
        return num / den if den else 0.0

    main_s = t("cli.main")
    nonlinear = calls.get("lsq.fit_nonlinear", 0)
    trials = calls.get("experiment.run_trial", 0)
    untraced_s = sum(dt for _, dt in res["calls"])
    traced_s = sum(dt for _, dt in res["traced_calls"])
    bytes_read = sum(os.path.getsize(work / "untraced" / checks.options(a)["--input"])
                     for a in argvs if "--input" in checks.options(a))
    metrics = {
        "distribution.calls": (entries.get("distribution", 0), "count_exact"),
        "distribution.sample_s": (t("distribution.sample_rejection", "distribution.sample_exact"), "s"),
        "distribution.proposals": (counts.get("distribution.proposals", 0), "count_exact"),
        "distribution.acceptance_rate": (share(counts.get("distribution.accepted", 0),
                                               counts.get("distribution.proposals", 0)), "share_exact"),
        "distribution.self_s": (self_s.get("distribution", 0.0), "s"),
        "hausdorff.calls": (entries.get("hausdorff", 0), "count_exact"),
        "hausdorff.reset_s": (t("hausdorff.reset_horizontal"), "s"),
        "hausdorff.self_s": (self_s.get("hausdorff", 0.0), "s"),
        "lsq.fit_linear.calls": (calls.get("lsq.fit_linear", 0), "count_exact"),
        "lsq.fit_linear_s": (t("lsq.fit_linear"), "s"),
        "lsq.fit_nonlinear.calls": (nonlinear, "count_exact"),
        "lsq.fit_nonlinear_s": (t("lsq.fit_nonlinear"), "s"),
        "lsq.iterations_reported": (counts.get("lsq.iterations_reported", 0), "count_exact"),
        "lsq.unconverged": (counts.get("lsq.unconverged", 0), "count_exact"),
        "lsq.unconverged_share": (share(counts.get("lsq.unconverged", 0), nonlinear), "share_exact"),
        "lsq.nonconvergence_raised": (counts.get("lsq.nonconvergence_raised", 0), "count_exact"),
        "lsq.self_s": (self_s.get("lsq", 0.0), "s"),
        "stretched.calls": (calls.get("stretched.stretched_fit", 0), "count_exact"),
        "stretched.self_s": (self_s.get("stretched", 0.0), "s"),
        "stretched.warm_starts": (counts.get("stretched.warm_starts", 0), "count_exact"),
        "stretched.warm_start_failed": (counts.get("stretched.warm_start_failed", 0), "count_exact"),
        "stretched.warm_start_failed_share": (share(counts.get("stretched.warm_start_failed", 0),
                                                    counts.get("stretched.warm_starts", 0)),
                                              "share_exact"),
        "experiment.trials": (trials, "count_exact"),
        "experiment.excluded": (result["excluded"], "count_exact"),
        "experiment.trial_s": (t("experiment.run_trial"), "s"),
        "experiment.trial_s_mean": (share(t("experiment.run_trial"), trials), "s"),
        "experiment.dataset_s": (t("experiment.make_noisy_dataset"), "s"),
        "experiment.score_s": (t("experiment.error1", "experiment.error2"), "s"),
        "experiment.self_s": (self_s.get("experiment", 0.0), "s"),
        "cli.calls": (calls.get("cli.main", 0), "count_exact"),
        "cli.main_s": (main_s, "s"),
        "cli.self_s": (self_s.get("cli", 0.0), "s"),
        "cli.bytes_read": (bytes_read, "bytes_exact"),
        "cli.bytes_written": (sum(len(o) for o in outputs if o is not None), "bytes_exact"),
        "trace.slowdown": (share(traced_s, untraced_s), "ratio"),
        "trace.self_sum_share": (share(sum(self_s.values()), main_s), "share"),
    }
    notes = [
        f"{count} calls each untraced and traced, ops attempted {result['attempted']}, "
        f"failed {result['failed']}; trials excluded by the program (reported, not failed): "
        f"{result['excluded']}",
        f"tracing overhead: traced calls took {traced_s:.4f} s against {untraced_s:.4f} s "
        f"untraced ({100.0 * (share(traced_s, untraced_s) - 1.0):+.1f}%)",
        f"layer self times sum to {sum(self_s.values()):.6f} s of {main_s:.6f} s traced cli.main",
    ]
    return result, metrics, notes + result["problems"][:20]


# ---------------------------------------------------------------------------
# entry point
# ---------------------------------------------------------------------------

def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", choices=workloads.WORKLOADS, required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--smoke", action="store_true",
                        help="tiny inputs, for the benchmark's own tests")
    args = parser.parse_args(argv)
    deadline = perf_counter() + RUN_DEADLINE_S

    root = Path.cwd()
    if not (root / "src" / "stretchfit" / "__init__.py").is_file():
        print("perfbench: no src/stretchfit here; run from the root of a checkout",
              file=sys.stderr)
        return 2
    work = root / ".perfbench_work" / f"{args.workload}-{args.seed}-{args.trace}-{os.getpid()}"
    run = traced_run if args.trace else untraced_run
    try:
        result, metrics, notes = run(args.workload, args.seed, args.seconds, args.smoke,
                                     root, work, deadline)
    except HarnessError as exc:
        print(f"perfbench: {exc}", file=sys.stderr)
        return 2
    finally:
        shutil.rmtree(work, ignore_errors=True)
        if work.parent.is_dir() and not any(work.parent.iterdir()):
            work.parent.rmdir()

    print(f"perfbench {args.workload} seed={args.seed} trace={args.trace}")
    for line in notes:
        print(f"  {line}")
    for name, (value, unit) in metrics.items():
        print(f"  {name:36s} {value:.6g} {unit}")
    print(json.dumps({
        "correct": not result["problems"],
        "attempted": result["attempted"],
        "failed": result["failed"],
        "metrics": {name: {"value": value, "unit": unit} for name, (value, unit) in metrics.items()},
    }))
    return 0


if __name__ == "__main__":
    sys.exit(main())
