"""The benchmark's workloads (perfbench/workloads.py) check every op's
output and count a rejected op as failed.  Running the first op of two
workloads through those checks here catches an output change that the
benchmark would reject before a benchmark run does."""

import hashlib
import os
from pathlib import Path

import pytest

from gonlab.cli import main

PERFBENCH = Path(__file__).resolve().parents[1] / "perfbench"

# sha256 over the exit code and stdout of the first 32 cubic-bounds ops and
# the first 8 harness-small ops at seed 1, recorded before the separator
# search skipped its packing where it cannot prune: a change to the search's
# cost, not its tree, must keep these bytes
FIRST_OPS_DIGEST = "20262c629108f84cd6a95b60908bc077be3c89a17bdc016baa57253ef1cabc9e"


@pytest.mark.parametrize("name", ["cubic-bounds", "harness-small"])
def test_benchmark_accepts_first_op(name, tmp_path, monkeypatch, capsys):
    monkeypatch.syspath_prepend(str(PERFBENCH))
    from workloads import WORKLOADS

    workload = WORKLOADS[name]
    op = workload.ops(1, tmp_path)[0]
    rc = main(list(op.argv))
    assert workload.failed_items(op, rc, capsys.readouterr().out) == 0


def test_first_ops_print_the_recorded_bytes(tmp_path, monkeypatch, capsys):
    """Output guard: a speed-up that keeps the search trees keeps every byte."""
    monkeypatch.syspath_prepend(str(PERFBENCH))
    for key in [k for k in os.environ if k.startswith("GONLAB_")]:
        monkeypatch.delenv(key)
    from workloads import WORKLOADS

    digest = hashlib.sha256()
    for name, count in (("cubic-bounds", 32), ("harness-small", 8)):
        for op in WORKLOADS[name].ops(1, tmp_path)[:count]:
            rc = main(list(op.argv))
            digest.update(f"{rc}\n{capsys.readouterr().out}".encode())
    assert digest.hexdigest() == FIRST_OPS_DIGEST
