"""Tests of the benchmark itself.

Run from the root of a checkout:  python3 -m pytest perfbench

They check that tampered outputs raise the failed-op count while an exclusion
the program reports is counted apart, that a smoke run prints every metric
of BENCHMARK.json with its unit, that traced counters repeat exactly, and
that a directory without the package is refused.
"""

from __future__ import annotations

import json
import shutil
import subprocess
import sys
from pathlib import Path

import pytest

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
sys.path.insert(0, str(HERE))

import run  # noqa: E402
import workloads  # noqa: E402


def _first_cycle(workload: str, tmp_path: Path, monkeypatch):
    """The first cycle of calls at smoke size, made in-process."""
    monkeypatch.syspath_prepend(str(ROOT / "src"))
    from stretchfit import cli

    files = run.write_inputs(workload, 3, True, tmp_path / "inputs")
    cwd = tmp_path / "main"
    cwd.mkdir()
    monkeypatch.chdir(cwd)
    argvs = [workloads.op_argv(workload, 3, k, True)
             for k in range(workloads.cycle_length(workload))]
    codes = [cli.main(argv) for argv in argvs]
    outputs = [(cwd / workloads.out_name(k)).read_bytes() for k in range(len(argvs))]
    return argvs, codes, outputs, files


def _failed(workload, argvs, codes, outputs, files, reruns=None) -> int:
    return run.evaluate(workload, argvs, codes, outputs, reruns or {}, files,
                        run.References())["failed"]


def _tampered(outputs: list[bytes], k: int, edit) -> list[bytes]:
    report = json.loads(outputs[k])
    edit(report)
    return outputs[:k] + [json.dumps(report).encode()] + outputs[k + 1:]


def test_perturbed_fit_parameter_is_a_failed_op(tmp_path, monkeypatch):
    argvs, codes, outputs, files = _first_cycle("fit-file", tmp_path, monkeypatch)
    assert _failed("fit-file", argvs, codes, outputs, files) == 0

    # The quadratic is caught by the independent least squares oracle at a
    # 1e-6 change; the sinusoid only by its SSE no longer matching, which
    # near an optimum moves with the square of the change.
    for model, change in (("poly2", 1e-6), ("sin", 1e-3)):
        k = next(k for k, argv in enumerate(argvs) if argv[4] == model and argv[6] == "lsm")

        def perturb(report, change=change):
            report["params"][1] *= 1.0 + change
        assert _failed("fit-file", argvs, codes, _tampered(outputs, k, perturb), files) == 1


def test_dropped_trial_fails_the_call(tmp_path, monkeypatch):
    argvs, codes, outputs, files = _first_cycle("mc-poly", tmp_path, monkeypatch)
    reps = workloads.reps("mc-poly", True)
    assert _failed("mc-poly", argvs, codes, outputs, files) == 0

    def drop(report):
        report["trials"].pop()
    assert _failed("mc-poly", argvs, codes, _tampered(outputs, 1, drop), files) == reps


def test_reported_exclusion_is_counted_but_not_failed(tmp_path, monkeypatch):
    argvs, codes, outputs, files = _first_cycle("mc-poly", tmp_path, monkeypatch)
    reps = workloads.reps("mc-poly", True)

    def exclude_all(report):
        report["failures"] = [{"trial": t["trial"], "error": "excluded"} for t in report["trials"]]
        report["excluded"], report["trials"] = reps, []
    result = run.evaluate("mc-poly", argvs, codes, _tampered(outputs, 1, exclude_all), {},
                          files, run.References())
    assert (result["failed"], result["excluded"], result["problems"]) == (0, reps, [])


def test_rerun_mismatch_is_a_failed_op(tmp_path, monkeypatch):
    argvs, codes, outputs, files = _first_cycle("mc-sin", tmp_path, monkeypatch)
    same = {0: (codes[0], outputs[0])}
    other = {0: (codes[0], outputs[0].replace(b"\n", b"\n ", 1))}
    assert _failed("mc-sin", argvs, codes, outputs, files, same) == 0
    assert _failed("mc-sin", argvs, codes, outputs, files, other) == 1


def _smoke(workload: str, trace: int, cwd: Path = ROOT) -> subprocess.CompletedProcess:
    return subprocess.run(
        [sys.executable, str(cwd / "perfbench" / "run.py"), "--workload", workload,
         "--seed", "5", "--seconds", "1", "--trace", str(trace), "--smoke"],
        cwd=cwd, capture_output=True, text=True, timeout=180)


@pytest.mark.parametrize("trace", [0, 1])
@pytest.mark.parametrize("workload", workloads.WORKLOADS)
def test_smoke_run_prints_every_metric_with_its_unit(workload, trace):
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    wanted = {m["name"]: m["unit"] for m in spec["per_layer" if trace else "end_to_end"]}
    proc = _smoke(workload, trace)
    assert proc.returncode == 0, proc.stderr
    result = json.loads(proc.stdout.strip().splitlines()[-1])
    assert set(result) == {"correct", "attempted", "failed", "metrics"}
    assert result["correct"] and result["failed"] == 0 and result["attempted"] >= 1
    assert {name: m["unit"] for name, m in result["metrics"].items()} == wanted
    for name in wanted:
        assert f"  {name} " in proc.stdout
    if trace:
        assert result["metrics"]["trace.self_sum_share"]["value"] == pytest.approx(1.0, abs=1e-9)


def test_traced_counts_repeat_exactly():
    runs = [json.loads(_smoke("mc-sin", 1).stdout.strip().splitlines()[-1])["metrics"]
            for _ in range(2)]
    exact = [name for name, m in runs[0].items() if m["unit"].endswith("_exact")]
    assert exact and all(runs[0][name] == runs[1][name] for name in exact)


def test_refuses_a_directory_without_the_package(tmp_path):
    shutil.copytree(HERE, tmp_path / "perfbench",
                    ignore=shutil.ignore_patterns("__pycache__", ".pytest_cache"))
    shutil.copy(ROOT / "BENCHMARK.json", tmp_path / "BENCHMARK.json")
    proc = _smoke("mc-poly", 0, cwd=tmp_path)
    assert proc.returncode != 0
    assert "{" not in proc.stdout
