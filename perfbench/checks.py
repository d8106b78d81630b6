"""Output checks of the benchmark, independent of the package's own code.

`check_fit` and `check_experiment` return the problems they find in one
call's output; run.py counts an op with any problem as failed.  They use
only numpy/scipy and the inputs the benchmark generated, never `stretchfit`.

`reference_sse` gives the sinusoid family's least attainable SSE on a data
set, against which `sse_excess` is measured.  For a fixed frequency b the
model a*sin(bx+c)+d = A sin(bx) + B cos(bx) + d is linear in (A, B, d), so
the SSE is a one-dimensional profile in b (variable projection, Golub &
Pereyra 1973).  A dense b grid locates the basins, the best few are polished
by MINPACK Levenberg-Marquardt, and the quadratic least squares SSE is
included as well: as b -> 0 the span of {sin bx, cos bx, 1} tends to that of
{1, x, x^2}, so the quadratic fit is the family's infimum along that edge,
which no finite (a, b) attains and which iterative solvers approach slowly.
"""

from __future__ import annotations

import math

import numpy as np
import scipy.linalg
import scipy.optimize

ERROR_COLUMNS = ("lsm_error1", "lsm_error2", "slsm_error1", "slsm_error2")

# Grid of the reference profile: frequencies up to 8 * 2*pi/span (twice the
# package's highest start), 50 points per 2*pi/span, on at most 1000 of the
# points; the best 3 local minima are polished on all points.  A polish converges in a few iterations inside a basin; the
# evaluation cap only cuts short the crawl toward b -> 0, which the
# quadratic fit covers.
_PROFILE_PERIODS = 8
_PROFILE_DENSITY = 50
_POLISHED = 3
_POLISH_EVALUATIONS = 100
_PROFILE_POINTS = 1000

PARAM_RTOL = 1e-8   # against an independent SVD/QR least squares solve
SSE_RTOL = 1e-8     # reported SSE against the SSE of the reported parameters


def options(argv: list[str]) -> dict[str, str]:
    """`--flag value` pairs of an op's argv (every flag the benchmark passes has a value)."""
    return dict(zip(argv[1::2], argv[2::2]))


def sinusoid(params, x: np.ndarray) -> np.ndarray:
    a, b, c, d = params
    return a * np.sin(b * x + c) + d


def _sse(residual: np.ndarray) -> float:
    return float(residual @ residual)


def quadratic_fit(x: np.ndarray, y: np.ndarray) -> np.ndarray:
    coeffs, *_ = scipy.linalg.lstsq(np.vander(x, 3), y)
    return coeffs


def reference_sse(x: np.ndarray, y: np.ndarray) -> float:
    """Least SSE of a*sin(bx+c)+d on (x, y), the b -> 0 quadratic limit included."""
    best = _sse(np.polyval(quadratic_fit(x, y), x) - y)
    base = 2.0 * math.pi / float(x.max() - x.min())
    bs = base * np.arange(1, _PROFILE_PERIODS * _PROFILE_DENSITY + 1) / _PROFILE_DENSITY
    step = max(1, x.size // _PROFILE_POINTS)
    xs, ys = x[::step], y[::step]
    profile = np.concatenate([_profile(bs[i:i + 100], xs, ys) for i in range(0, bs.size, 100)])
    interior = (profile[1:-1] <= profile[:-2]) & (profile[1:-1] <= profile[2:])
    minima = np.concatenate([[0], np.flatnonzero(interior) + 1])
    for i in minima[np.argsort(profile[minima])][:_POLISHED]:
        best = min(best, _polish(float(bs[i]), x, y))
    return best


def _profile(bs: np.ndarray, x: np.ndarray, y: np.ndarray) -> np.ndarray:
    # Projection onto centered, normalized sin and cos columns; used only to
    # rank frequencies, so the normal-equation precision is enough.
    yc = y - y.mean()
    arg = np.outer(bs, x)
    s = np.sin(arg)
    c = np.cos(arg)
    s -= s.mean(axis=1, keepdims=True)
    c -= c.mean(axis=1, keepdims=True)
    s /= np.linalg.norm(s, axis=1, keepdims=True)
    c /= np.linalg.norm(c, axis=1, keepdims=True)
    r1, r2, rho = s @ yc, c @ yc, np.einsum("ij,ij->i", s, c)
    explained = (r1**2 + r2**2 - 2.0 * rho * r1 * r2) / (1.0 - rho**2)
    sse = float(yc @ yc) - explained
    return np.where(np.isfinite(sse), sse, np.inf)


def _polish(b: float, x: np.ndarray, y: np.ndarray) -> float:
    design = np.column_stack([np.sin(b * x), np.cos(b * x), np.ones_like(x)])
    (sa, ca, d), *_ = scipy.linalg.lstsq(design, y)
    start = np.array([math.hypot(sa, ca), b, math.atan2(ca, sa), d])

    def residual(p):
        return sinusoid(p, x) - y

    def jacobian(p):
        a, b_, c, _ = p
        arg = b_ * x + c
        co = np.cos(arg)
        return np.column_stack([np.sin(arg), a * x * co, a * co, np.ones_like(x)])

    fit = scipy.optimize.least_squares(residual, start, jac=jacobian, method="lm",
                                       xtol=1e-15, ftol=1e-15, gtol=1e-15,
                                       max_nfev=_POLISH_EVALUATIONS)
    return min(_sse(design @ np.array([sa, ca, d]) - y), _sse(fit.fun))


def _close(a: float, b: float, rtol: float) -> bool:
    return math.isclose(a, b, rel_tol=rtol, abs_tol=rtol * 1e-6)


def _params_close(got, want, rtol: float = PARAM_RTOL) -> bool:
    got, want = np.asarray(got, dtype=float), np.asarray(want, dtype=float)
    return got.shape == want.shape and bool(
        np.linalg.norm(got - want) <= rtol * max(np.linalg.norm(want), 1e-300))


def _check_stage(stage: dict, model: str, x: np.ndarray, y: np.ndarray,
                 problems: list[str], where: str) -> None:
    """Shape, canonical form and SSE consistency of one reported fit."""
    params = np.asarray(stage.get("params", []), dtype=float)
    if stage.get("model") != ("sinusoid" if model == "sin" else model) or params.size != (4 if model == "sin" else 3):
        problems.append(f"{where}: model/parameter count wrong")
        return
    if not np.all(np.isfinite(params)):
        problems.append(f"{where}: non-finite parameters")
        return
    if model == "sin":
        a, _, c, _ = params
        if not (a > 0.0 and -math.pi < c <= math.pi):
            problems.append(f"{where}: parameters not canonical (a > 0, c in (-pi, pi])")
        fitted = sinusoid(params, x)
    else:
        fitted = np.polyval(params, x)
    if not _close(float(stage.get("sse", math.nan)), _sse(fitted - y), SSE_RTOL):
        problems.append(f"{where}: reported sse differs from the sse of its parameters")


def check_fit(argv: list[str], code: int, report: dict, data: tuple[np.ndarray, np.ndarray],
              references) -> tuple[list[str], list[tuple[float, float]]]:
    """Problems in one `fit` output, and the SSE excess of each sinusoid stage.

    The excess of a stage is returned twice: relative to the reference SSE,
    and as a share of the stage data's total sum of squares about its mean.
    The first blows up on the nearly noise-free data of a stretched fit's
    final stage, where the reference SSE is tiny; the second does not.
    `references(x, y)` returns `reference_sse(x, y)` (run.py caches it);
    with None no excess is computed.
    """
    opts = options(argv)
    model, method = opts["--model"], opts["--method"]
    x, y = data
    problems: list[str] = []
    excess: list[tuple[float, float]] = []
    manifest = report.get("manifest", {})
    want_config = {"input": opts["--input"], "model": model, "method": method,
                   "beta": float(opts["--beta"]) if "--beta" in opts else None}
    if manifest.get("command") != "fit" or manifest.get("config") != want_config \
            or manifest.get("outputs") != [opts["--out"]]:
        problems.append("manifest does not describe the call")
    if report.get("method") != method:
        problems.append("method field wrong")

    if method == "lsm":
        stages = [("fit", report, x, y)]
        converged = bool(report.get("converged"))
        if model == "poly2" and not _params_close(report.get("params", []), quadratic_fit(x, y)):
            problems.append("poly2 lsm parameters differ from an independent least squares fit")
    else:
        st = report.get("stages", {})
        transition, final = st.get("transition", {}), st.get("final", {})
        beta = float(opts["--beta"])
        if st.get("beta") != beta:
            problems.append("stages.beta differs from --beta")
        if report.get("params") != final.get("params") or report.get("sse") != final.get("sse"):
            problems.append("top-level fit is not the final stage")
        xx = x + x**beta
        try:
            tparams = np.asarray(transition["params"], dtype=float)
            smooth = sinusoid(tparams, xx) if model == "sin" else np.polyval(tparams, xx)
        except (KeyError, TypeError, ValueError):
            problems.append("transition stage missing")
            return problems, excess
        stages = [("transition", transition, xx, y), ("final", final, x, smooth)]
        converged = bool(transition.get("converged")) and bool(final.get("converged"))
        if model == "poly2":
            t_ref = quadratic_fit(xx, y)
            f_ref = quadratic_fit(x, np.polyval(t_ref, xx))
            if not (_params_close(tparams, t_ref) and _params_close(final.get("params", []), f_ref)):
                problems.append("stretched parameters differ from the two-stage fit on x + x**beta")

    if code != (0 if converged else 3):
        problems.append(f"exit code {code} does not match converged={converged}")
    for name, stage, sx, sy in stages:
        _check_stage(stage, model, sx, sy, problems, name)
        if model == "sin" and references is not None and not problems:
            ref = references(sx, sy)
            gap = float(stage["sse"]) - ref
            excess.append((gap / ref, gap / _sse(sy - sy.mean())))
    return problems, excess


def check_experiment(argv: list[str], code: int, report: dict) -> tuple[list[str], int]:
    """Problems in one `experiment` output, and the number of trials it excluded."""
    opts = options(argv)
    reps = int(opts["--reps"])
    problems: list[str] = []
    if code != 0:
        problems.append(f"exit code {code}")
    config = report.get("manifest", {}).get("config", {})
    if (config.get("model"), config.get("beta"), config.get("eta"), config.get("reps"),
            report.get("manifest", {}).get("seed")) != (
            opts["--model"], float(opts["--beta"]), float(opts["--eta"]), reps,
            int(opts["--seed"])):
        problems.append("manifest does not describe the call")
    trials = report.get("trials", [])
    excluded = int(report.get("excluded", -1))
    if report.get("repetitions") != reps or excluded + len(trials) != reps \
            or len(report.get("failures", [])) != excluded:
        problems.append("excluded + len(trials) != reps")
    dropped = {f.get("trial") for f in report.get("failures", [])}
    if [t.get("trial") for t in trials] != [i for i in range(reps) if i not in dropped]:
        problems.append("trial indices are not 0..reps-1 in order, less the excluded ones")
    if not trials:  # every trial excluded: nothing to aggregate
        return problems, max(excluded, 0)
    try:
        table = np.array([[t[col] for col in ERROR_COLUMNS] for t in trials], dtype=float)
    except (KeyError, TypeError, ValueError):
        return problems + ["trial errors missing"], max(excluded, 0)
    if not (np.all(np.isfinite(table)) and np.all(table >= 0.0)):
        problems.append("trial errors not finite and nonnegative")
    wins1 = int(np.sum(table[:, 2] < table[:, 0])) / len(trials)
    wins2 = int(np.sum(table[:, 3] < table[:, 1])) / len(trials)
    if (report.get("win_rate_error1"), report.get("win_rate_error2")) != (wins1, wins2):
        problems.append("win rates differ from the per-trial errors")
    for j, col in enumerate(ERROR_COLUMNS):
        q25, q50, q75 = np.percentile(table[:, j], [25.0, 50.0, 75.0])
        if not (_close(report.get("medians", {}).get(col, math.nan), q50, 1e-12)
                and _close(report.get("iqrs", {}).get(col, math.nan), q75 - q25, 1e-9)):
            problems.append(f"median/iqr of {col} differ from the per-trial errors")
    return problems, max(excluded, 0)
