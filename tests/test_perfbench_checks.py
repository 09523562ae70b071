"""The benchmark's workloads (perfbench/workloads.py) check every op's
output and count a rejected op as failed.  Running the first op of two
workloads through those checks here catches an output change that the
benchmark would reject before a benchmark run does."""

import hashlib
from pathlib import Path

import pytest

from gonlab.cli import main

PERFBENCH = Path(__file__).resolve().parents[1] / "perfbench"

# sha256 over the exit code and stdout of the first 32 cubic-bounds ops and
# the first 8 harness-small ops at seed 1, recorded when the bound report
# stopped running a vertex-cover search that cannot beat the genus bound:
# row 1's `separator_size` is null where the greedy cover is not proven
# minimum, and `upper_independence` is the greedy complement's degree (10
# of the 32 cubic outputs changed; `lower` and `upper` did not).  A change
# to the search's cost, not its tree, must keep these bytes
FIRST_OPS_DIGEST = "7cbb1b77cd0debc80d21809833065121e17adf42a01cd5ecca5b6c5b077cc49e"


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
    from workloads import WORKLOADS

    digest = hashlib.sha256()
    for name, count in (("cubic-bounds", 32), ("harness-small", 8)):
        for op in WORKLOADS[name].ops(1, tmp_path)[:count]:
            rc = main(list(op.argv))
            digest.update(f"{rc}\n{capsys.readouterr().out}".encode())
    assert digest.hexdigest() == FIRST_OPS_DIGEST
