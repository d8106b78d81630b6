"""One benchmark child process.

Usage: python3 child.py SPEC_JSON   (started by run.py with the package on
PYTHONPATH and BLAS/OpenMP pinned to one thread)

The child pins itself to the quietest allowed CPU (again before every cycle
of calls), imports `stretchfit`, makes the workload's warm-up calls, prints
`ready` (the parent's set-up clock stops there), makes its calls to
`stretchfit.cli.main` in-process, one at a time, and writes the call
latencies, exit codes, peak RSS and, in a traced pass, the span aggregates
to the spec's result file.  Spec modes:

- `timed`: calls 0, 1, 2, ... until `seconds` have passed at a cycle boundary;
- `rerun`: the listed calls once each, untimed, for the determinism check;
- `traced`: calls 0..count-1, each cycle of them first untraced in the cwd,
  then traced in the sibling directory `traced_cwd`.
"""

from __future__ import annotations

import json
import os
import resource
import sys
import traceback
from pathlib import Path
from time import perf_counter

import workloads


def _call(main, argv: list[str]) -> tuple[int, float]:
    t0 = perf_counter()
    try:
        code = main(argv)
    except SystemExit as exc:  # argparse rejects bad arguments this way
        code = exc.code if isinstance(exc.code, int) else 2
    except Exception:  # an op failure is scored, not fatal to the run
        traceback.print_exc()
        code = -1
    return code, perf_counter() - t0


def _calibration_s() -> float:
    """Time of a fixed mix of small numpy and pure-Python work (~2 ms)."""
    import numpy as np

    x = np.linspace(0.0, 1.0, 200)
    t0 = perf_counter()
    total = 0.0
    for i in range(100):
        y = np.sin(x * (1.0 + 1e-3 * i)) + 0.5
        total += float(y @ y) + len(json.dumps([float(v) for v in y[:20]]))
    return perf_counter() - t0


def pin_to_quietest_cpu(cpus: list[int]) -> None:
    """Pin the process to the allowed CPU that runs the calibration fastest now.

    On a shared host, other tenants slow one core at a time, by up to ~2x
    and for seconds at a stretch; probing before every cycle of calls keeps
    the calls on the core that is running at full speed.  The probe runs
    between timed calls, never inside one.
    """
    timings = []
    for cpu in cpus:
        os.sched_setaffinity(0, {cpu})
        timings.append((min(_calibration_s() for _ in range(3)), cpu))
    os.sched_setaffinity(0, {min(timings)[1]})


def main() -> int:
    cpus = sorted(os.sched_getaffinity(0))
    spec = json.loads(Path(sys.argv[1]).read_text(encoding="utf-8"))
    workload, seed, smoke = spec["workload"], spec["seed"], spec["smoke"]
    pin_to_quietest_cpu(cpus)

    from stretchfit import cli

    for argv in workloads.warmup_argvs(workload):
        code, _ = _call(cli.main, argv)
        if code not in (0, 3):
            print(f"warm-up call {argv} exited {code}", file=sys.stderr)
            return 1
    print("ready", flush=True)

    def argv_of(k: int) -> list[str]:
        return workloads.op_argv(workload, seed, k, smoke)

    result: dict = {}
    mode = spec["mode"]
    if mode == "timed":
        calls = []
        cycle = workloads.cycle_length(workload)
        start = perf_counter()
        while True:
            if len(calls) % cycle == 0:
                pin_to_quietest_cpu(cpus)
            calls.append(_call(cli.main, argv_of(len(calls))))
            if len(calls) % cycle == 0 and perf_counter() - start >= spec["seconds"]:
                break
        result["calls"] = calls
    elif mode == "rerun":
        result["calls"] = [_call(cli.main, argv_of(k)) for k in spec["ops"]]
    elif mode == "traced":
        import tracing

        # Untraced and traced cycles alternate, so that a slow phase of the
        # host hits both sides of the overhead ratio alike.
        tracer = tracing.Tracer()
        untraced_cwd = os.getcwd()
        cycle = workloads.cycle_length(workload)
        result["calls"], result["traced_calls"] = [], []
        for start in range(0, spec["count"], cycle):
            ops = range(start, min(start + cycle, spec["count"]))
            pin_to_quietest_cpu(cpus)
            os.chdir(untraced_cwd)
            result["calls"] += [_call(cli.main, argv_of(k)) for k in ops]
            os.chdir(spec["traced_cwd"])
            undo = tracing.install(tracer)
            try:
                result["traced_calls"] += [
                    tracer.call("cli", "main", _call, (cli.main, argv_of(k))) for k in ops
                ]
            finally:
                undo()
        result["trace"] = tracer.snapshot()
    else:
        raise ValueError(f"unknown mode {mode!r}")

    result["peak_rss_mb"] = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0
    Path(spec["result"]).write_text(json.dumps(result), encoding="utf-8")
    return 0


if __name__ == "__main__":
    sys.exit(main())
