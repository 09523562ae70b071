"""The benchmark's workloads (perfbench/workloads.py) check every op's
output and count a rejected op as failed.  Running the first op of two
workloads through those checks here catches an output change that the
benchmark would reject before a benchmark run does."""

from pathlib import Path

import pytest

from gonlab.cli import main

PERFBENCH = Path(__file__).resolve().parents[1] / "perfbench"


@pytest.mark.parametrize("name", ["cubic-bounds", "harness-small"])
def test_benchmark_accepts_first_op(name, tmp_path, monkeypatch, capsys):
    monkeypatch.syspath_prepend(str(PERFBENCH))
    from workloads import WORKLOADS

    workload = WORKLOADS[name]
    op = workload.ops(1, tmp_path)[0]
    rc = main(list(op.argv))
    assert workload.failed_items(op, rc, capsys.readouterr().out) == 0
