"""The benchmark's workloads: which `stretchfit` calls one run makes.

This module is shared by the parent (`run.py`) and the child processes
(`child.py`), so it imports nothing beyond the standard library: whatever a
child imports before its first timed call counts toward `setup_s`.

An *op* is one Monte Carlo trial in the `mc-*` workloads and one `fit` call
in `fit-file`.  A *call* is one `stretchfit.cli.main` invocation; an
`experiment` call runs `reps` trials.  Calls are issued in cycles of
`cycle_length()` so that every run covers each configuration equally.
"""

from __future__ import annotations

WORKLOADS = ("mc-poly", "mc-sin", "fit-file")

# The benchmark grid's configurations as (beta, eta) pairs, in cycle order.
GRID = (("0.4", "30"), ("0.8", "30"), ("0.4", "50"), ("0.8", "50"))

# Trials per `experiment` call.  mc-poly amortises the call over many cheap
# trials (~0.6 ms each).  mc-sin trials cost either ~50-180 ms or ~300-600 ms
# (fits that hit the iteration cap), in about equal shares, so the median of
# single trials sits on the edge between the two groups and jumps between
# them from seed to seed; the sum of two trials puts it inside the middle
# group, and still leaves ~55 calls per run for the tail.
REPS = {"mc-poly": 250, "mc-sin": 2}
SMOKE_REPS = {"mc-poly": 5, "mc-sin": 1}
SMOKE_N = 30

# Point counts of the fit-file inputs.  `poly2` files are large enough that
# CSV parsing dominates the call; `wide` files put the sinusoid solver in its
# O(n) kernels on a domain where the frequency is identifiable; `unit` files
# use the paper's [0, 1] domain, where the b -> 0 degenerate limit occurs.
FILE_N = {"poly2": 100_000, "wide": 5_000, "unit": 2_000}
SMOKE_FILE_N = {"poly2": 2_000, "wide": 300, "unit": 200}

# One fit-file cycle: (file kind, model, method, beta).  Eight of the 13
# calls fit a quadratic file (~0.15 s, nearly all parsing), so the median
# call is one of them whatever the sinusoid fits cost; the three wide-domain
# calls (0.5-1 s) set the tail.  Every cycle fits sinusoids to files of its
# own, because a sinusoid fit's cost depends on its data (unit-domain fits
# take 0.07 s or, at the iteration cap, 0.4-0.8 s): a run that repeated a
# few files would inherit their cost, fresh files average over many.
FIT_CYCLE = (
    ("poly2", "poly2", "lsm", None),
    ("wide", "sin", "lsm", None),
    ("poly2", "poly2", "stretched", "0.4"),
    ("unit", "sin", "lsm", None),
    ("poly2", "poly2", "lsm", None),
    ("wide", "sin", "stretched", "0.8"),
    ("poly2", "poly2", "stretched", "0.8"),
    ("poly2", "poly2", "lsm", None),
    ("wide", "sin", "lsm", None),
    ("poly2", "poly2", "stretched", "0.4"),
    ("unit", "sin", "stretched", "0.4"),
    ("poly2", "poly2", "lsm", None),
    ("poly2", "poly2", "stretched", "0.8"),
)
POLY_FILES = 2
# Cycles with their own sinusoid files; later cycles reuse them in turn.
FILE_CYCLES = 12

# Calls per second at the seed commit on a 2-core x86-64 host; only used to
# size the traced run's fixed amount of work, never to score a run.
NOMINAL_CALLS_PER_S = {"mc-poly": 7.0, "mc-sin": 2.2, "fit-file": 3.0}

INPUT_DIR = "../inputs"


def cycle_length(workload: str) -> int:
    return len(FIT_CYCLE) if workload == "fit-file" else len(GRID)


def reps(workload: str, smoke: bool) -> int:
    """Ops per call: trials per experiment call, or 1 for a fit call."""
    if workload == "fit-file":
        return 1
    return (SMOKE_REPS if smoke else REPS)[workload]


def op_seed(seed: int, k: int) -> int:
    """Experiment seed of call k: distinct per (benchmark seed, k)."""
    return (seed * 1_000_003 + k) % 2**63


def out_name(k: int) -> str:
    return f"op_{k:06d}.json"


def input_file(k: int) -> str:
    """Input file of fit-file call k."""
    cycle, position = divmod(k, len(FIT_CYCLE))
    kind = FIT_CYCLE[position][0]
    index = sum(1 for entry in FIT_CYCLE[:position] if entry[0] == kind)
    if kind == "poly2":
        return f"poly2_{index % POLY_FILES}.csv"
    return f"{kind}_{cycle % FILE_CYCLES}_{index}.csv"


def op_argv(workload: str, seed: int, k: int, smoke: bool) -> list[str]:
    """Arguments of call k for `stretchfit.cli.main`, relative to the child's cwd."""
    if workload == "fit-file":
        _, model, method, beta = FIT_CYCLE[k % len(FIT_CYCLE)]
        argv = ["fit", "--input", f"{INPUT_DIR}/{input_file(k)}", "--model", model,
                "--method", method]
        if beta is not None:
            argv += ["--beta", beta]
    else:
        beta, eta = GRID[k % len(GRID)]
        argv = ["experiment", "--model", workload[3:], "--beta", beta, "--eta", eta,
                "--reps", str(reps(workload, smoke)), "--seed", str(op_seed(seed, k))]
        if smoke:
            argv += ["-n", str(SMOKE_N)]
    return argv + ["--threads", "1", "--out", out_name(k)]


def warmup_argvs(workload: str) -> list[list[str]]:
    """Fixed, seed-independent calls a child makes before it times anything."""
    if workload == "fit-file":
        return [
            ["fit", "--input", f"{INPUT_DIR}/warm_poly.csv", "--model", "poly2",
             "--method", "stretched", "--beta", "0.4", "--out", "warm_0.json"],
            ["fit", "--input", f"{INPUT_DIR}/warm_sin.csv", "--model", "sin",
             "--method", "stretched", "--beta", "0.8", "--out", "warm_1.json"],
        ]
    model = workload[3:]
    return [["experiment", "--model", model, "--beta", "0.4", "--eta", "30",
             "--reps", "20" if model == "poly" else "1", "-n", "40",
             "--seed", "0", "--out", "warm_0.json"]]


def traced_calls(workload: str, seconds: float) -> int:
    """Fixed call count of one traced pass: about seconds/2 at the seed commit.

    Fixed work makes the traced counters repeat exactly for a given seed.
    """
    m = cycle_length(workload)
    cycles = round(seconds / 2.0 * NOMINAL_CALLS_PER_S[workload] / m)
    return max(1, cycles) * m
