"""Self-test of the benchmark: brief runs of every workload, and gates that fail.

    python3 -m pytest bench

The brief runs take about a minute in all, most of it the large_targets
blocks, which cannot be cut shorter than one block of eight ops.
"""

from __future__ import annotations

import dataclasses
import json
import random
import shutil
import subprocess
import sys
from pathlib import Path

import pytest

BENCH = Path(__file__).resolve().parent
ROOT = BENCH.parent
sys.path[:0] = [str(BENCH), str(ROOT / "src")]

import run  # noqa: E402
import workloads  # noqa: E402
from spans import NullTracer  # noqa: E402

SPEC = json.loads((ROOT / "BENCHMARK.json").read_text())


def bench(*args: str, cwd: Path = ROOT) -> subprocess.CompletedProcess:
    return subprocess.run(
        [sys.executable, "bench/run.py", *args],
        cwd=cwd, capture_output=True, text=True, timeout=180,
    )


def test_spec_names_the_workloads_and_metrics_run_py_reports():
    assert [w["name"] for w in SPEC["workloads"]] == list(workloads.WORKLOADS)
    assert [(m["name"], m["unit"]) for m in SPEC["end_to_end"]] == list(run.END_TO_END)
    assert [(m["name"], m["unit"]) for m in SPEC["per_layer"]] == list(run.PER_LAYER)


@pytest.mark.parametrize("trace", [0, 1])
@pytest.mark.parametrize("workload", list(workloads.WORKLOADS))
def test_brief_run_prints_every_metric_and_no_errors(workload, trace):
    done = bench("--workload", workload, "--seed", "7", "--seconds", "1", "--trace", str(trace))
    assert done.returncode == 0, done.stderr
    *table, last = done.stdout.splitlines()
    result = json.loads(last)
    assert set(result) == {"correct", "attempted", "failed", "metrics"}
    assert result["correct"] and result["failed"] == 0 and result["attempted"] >= 1
    wanted = run.PER_LAYER if trace else run.END_TO_END
    assert {k: v["unit"] for k, v in result["metrics"].items()} == dict(wanted)
    printed = {line.split()[0]: line.split()[1:] for line in table}
    assert set(printed) >= set(result["metrics"])
    assert printed["error_rate"] == ["0", "ratio"]


def test_a_broken_plan_fails_the_gate(monkeypatch):
    workload = workloads.WORKLOADS["small_targets"]
    case = next(workload.blocks(random.Random(3)))[0]
    solver = workloads.SOLVERS[case.solver]

    def drop_first_move(target):
        plan = solver.solve(target)
        return dataclasses.replace(plan, moves=plan.moves[1:])

    monkeypatch.setitem(
        workloads.SOLVERS, case.solver, dataclasses.replace(solver, solve=drop_first_move)
    )
    assert run.run_op(workload, case, NullTracer(), 0)[1] is False


def test_a_wrong_oracle_minimum_fails_the_gate():
    workload = workloads.WORKLOADS["oracle_certify"]
    case = next(workload.blocks(random.Random(3)))[0]
    wrong = dataclasses.replace(case, minimum=case.minimum + 1)
    assert run.run_op(workload, wrong, NullTracer(), 0)[1] is False


def test_fails_without_printing_a_result_when_only_the_benchmark_is_there(tmp_path):
    shutil.copy(ROOT / "BENCHMARK.json", tmp_path)
    shutil.copytree(BENCH, tmp_path / "bench", ignore=shutil.ignore_patterns("__pycache__"))
    done = bench("--workload", "small_targets", "--seed", "1", "--seconds", "1", cwd=tmp_path)
    assert done.returncode != 0
    assert done.stdout == ""
