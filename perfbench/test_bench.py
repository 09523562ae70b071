"""Self-tests of the benchmark itself (not part of the library's test suite).

    python3 -m pytest perfbench/test_bench.py -q

The runs take about two minutes in all on two CPUs.
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

from tracing import EXACT  # noqa: E402
from workloads import WORKLOADS  # noqa: E402


def _run(cwd: Path, workload: str, seed: int, trace: int) -> subprocess.CompletedProcess:
    return subprocess.run(
        [sys.executable, "perfbench/run.py", "--workload", workload, "--seed", str(seed),
         "--seconds", "1", "--trace", str(trace)],
        cwd=cwd, capture_output=True, text=True, timeout=180,
    )


def _result(proc: subprocess.CompletedProcess) -> dict:
    assert proc.returncode == 0, proc.stderr
    return json.loads(proc.stdout.strip().splitlines()[-1])


@pytest.mark.parametrize("workload", sorted(WORKLOADS))
def test_exact_counts_repeat_for_one_seed(workload):
    first, second = (_result(_run(ROOT, workload, 7, trace=1)) for _ in range(2))
    for result in (first, second):
        assert result["correct"] and result["failed"] == 0
    for name in EXACT:
        assert first["metrics"][name] == second["metrics"][name], name


@pytest.mark.parametrize("workload", sorted(WORKLOADS))
def test_second_seed_runs_green(workload):
    result = _result(_run(ROOT, workload, 2, trace=0))
    assert result["correct"] and result["failed"] == 0 and result["attempted"] >= 1
    declared = json.loads((ROOT / "BENCHMARK.json").read_text())["end_to_end"]
    assert sorted(result["metrics"]) == sorted(m["name"] for m in declared)
    assert all(m["value"] > 0 for m in result["metrics"].values())


def test_fails_without_the_program(tmp_path):
    shutil.copy(ROOT / "BENCHMARK.json", tmp_path)
    shutil.copytree(HERE, tmp_path / "perfbench", ignore=shutil.ignore_patterns("__pycache__"))
    proc = _run(tmp_path, "pappus-cert", 1, trace=0)
    assert proc.returncode != 0
    assert '"metrics"' not in proc.stdout
