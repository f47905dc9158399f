"""Smoke test of the benchmark: every workload end to end on its tiny
operation list, traced and untraced; the checks reject corrupted outputs;
the command fails without printing a result where the package is absent.

    python3 -m pytest perfbench/smoke.py
"""

import dataclasses
import json
import shutil
import subprocess
import sys
from pathlib import Path

import pytest

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
sys.path[:0] = [str(HERE), str(ROOT / "src")]

import checks  # noqa: E402
import workloads  # noqa: E402

SPEC = json.loads((ROOT / "BENCHMARK.json").read_text())


def _bench(cwd: Path, workload: str, trace: int) -> subprocess.CompletedProcess:
    return subprocess.run(
        [sys.executable, "perfbench/run.py", "--workload", workload, "--seed", "7",
         "--seconds", "0.1", "--trace", str(trace), "--tiny"],
        cwd=cwd, capture_output=True, text=True, timeout=170)


@pytest.mark.parametrize("trace", [0, 1])
@pytest.mark.parametrize("workload", [w["name"] for w in SPEC["workloads"]])
def test_workload_runs_and_checks(workload, trace):
    proc = _bench(ROOT, workload, trace)
    assert proc.returncode == 0, proc.stderr
    result = json.loads(proc.stdout.strip().splitlines()[-1])
    assert set(result) == {"correct", "attempted", "failed", "metrics"}
    assert result["correct"] and result["failed"] == 0 and result["attempted"] >= 100
    wanted = SPEC["per_layer" if trace else "end_to_end"]
    assert {k: v["unit"] for k, v in result["metrics"].items()} == {
        m["name"]: m["unit"] for m in wanted}
    if not trace:
        assert all(v["value"] > 0 for v in result["metrics"].values())


def _run(op, state=None):
    return workloads.run(op, state or workloads.State())[1]


def test_checks_reject_a_corrupted_structure_result():
    state = workloads.State()
    _run(("build", "x^2+x+1", 500), state)
    op = ("jaconian", "x^2+x+1", 500)
    report = _run(op, state)
    ref = checks.Reference()
    checks.check(op, report, ref)
    wrong = dataclasses.replace(report, jaconian_set=report.jaconian_set[1:])
    with pytest.raises(checks.CheckError):
        checks.check(op, wrong, ref)


def test_checks_reject_a_corrupted_chroma_result():
    op = ("report", "x^2", 12)
    report = _run(op)
    ref = checks.Reference()
    checks.check(op, report, ref)
    wrong = dataclasses.replace(report, chi_minus=report.chi_minus + 1,
                                chi_plus=report.chi_plus - 1)
    with pytest.raises(checks.CheckError):
        checks.check(op, wrong, ref)


def test_checks_reject_a_corrupted_export():
    op = ("cli", ("export", "--f", "x^2", "--n", "40", "--format", "json", "--arcs"))
    code, text = _run(op)
    ref = checks.Reference()
    checks.check(op, (code, text), ref)
    obj = json.loads(text)
    obj["arcs"][-1][1] += 1  # the last arc now leaves the graph
    with pytest.raises(checks.CheckError):
        checks.check(op, (code, json.dumps(obj)), ref)


def test_fails_without_the_package(tmp_path):
    shutil.copy(ROOT / "BENCHMARK.json", tmp_path)
    shutil.copytree(HERE, tmp_path / "perfbench",
                    ignore=shutil.ignore_patterns("results", "__pycache__"))
    proc = _bench(tmp_path, "structure", 0)
    assert proc.returncode != 0
    assert proc.stdout.strip() == ""
