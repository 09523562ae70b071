"""One measurement process: set up a workload, run its ops, print a JSON result.

Started by ``run.py`` in a fresh interpreter with a cleaned environment.
``--setup-only`` stops once the first op is ready and reports the set-up
time alone.  Otherwise the worker either times untraced ops for
``--seconds`` (end-to-end metrics) or, with ``--trace 1``, runs whole
passes of the workload, each op once untraced and once traced, for the
per-layer metrics and the tracing overhead.

Untraced op times and set-up times are reported in reference seconds.  A
fixed pure-Python loop, which does not touch the program under test, is
timed after every op; each op's wall time is scaled by ``REF_LOOP_S`` over
the median of the loop times nearest it.  Set-up is scaled by the median
of a few loops timed right after it.  On a shared host whose speed drifts by
tens of percent over minutes, the program's cost relative to the loop
holds far steadier than its wall time.  Raw wall times are kept in the
result beside the scaled ones.
"""

from __future__ import annotations

import argparse
import contextlib
import hashlib
import io
import json
import math
import resource
import statistics
import sys
import time
from pathlib import Path

from tracing import Tracer, layer_metrics
from workloads import WORKLOADS


def _parse(argv):
    p = argparse.ArgumentParser()
    p.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    p.add_argument("--seed", type=int, required=True)
    p.add_argument("--seconds", type=float, required=True)
    p.add_argument("--trace", type=int, choices=(0, 1), default=0)
    p.add_argument("--launched-at", type=float, required=True, help="time.time() just before launch")
    p.add_argument("--setup-only", action="store_true")
    return p.parse_args(argv)


def _call(fn, argv):
    """(seconds, exit code or None on an exception, stdout) of one op."""
    out, err = io.StringIO(), io.StringIO()
    t0 = time.perf_counter()
    try:
        with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
            rc = fn(list(argv))
    except Exception:  # an op that raises is a failed op, not a dead run
        rc = None
    return time.perf_counter() - t0, rc, out.getvalue()


class Outputs:
    """Checks each op's output and that identical inputs give identical output."""

    def __init__(self, workload):
        self.workload = workload
        self.digests: dict[tuple[str, ...], str] = {}
        self.attempted = self.failed = 0
        self.mismatched = 0

    def record(self, op, rc, out) -> None:
        self.attempted += op.items
        bad = self.workload.failed_items(op, rc, out)
        digest = hashlib.sha256(out.encode()).hexdigest()
        if self.digests.setdefault(op.argv, digest) != digest:
            self.mismatched += 1
            bad = op.items
        self.failed += bad


# the reference loop: REF_LOOP_ITERS rounds take about REF_LOOP_S on an
# idle 2 GHz Xeon core; the constant only fixes the unit of the scaled times
REF_LOOP_ITERS = 30000
REF_LOOP_S = 0.010
# loops timed right after set-up, whose median scales the set-up time
SETUP_REF_LOOPS = 5


def _reference_loop() -> float:
    """Wall time of a fixed loop of dict and int work, independent of gonlab."""
    t0 = time.perf_counter()
    acc, table = 0, {}
    for i in range(REF_LOOP_ITERS):
        key = i & 1023
        table[key] = table.get(key, 0) + i
        acc ^= len(table) + i
    return time.perf_counter() - t0


def _tail(times: list[float]) -> dict:
    """Highest of p50..p99.9 with at least ten ops beyond it (nearest rank)."""
    ordered = sorted(times)
    n = len(ordered)
    for pct in (99.9, 99, 95, 90, 75, 50):
        if n * (100 - pct) / 100 >= 10:
            return {"value": ordered[math.ceil(pct * n / 100) - 1], "percentile": pct, "ops": n}
    return {"value": None, "percentile": None, "ops": n}


def run_untraced(main, workload, ops, seconds):
    """Cycle through the pass until `seconds` have elapsed.

    Times are scaled to reference seconds by the loop timed between ops.
    """
    outputs = Outputs(workload)
    wall: list[float] = []
    refs = [_reference_loop()]  # refs[i] and refs[i + 1] bracket op i
    items = 0
    deadline = time.perf_counter() + seconds
    while not wall or time.perf_counter() < deadline:
        op = ops[len(wall) % len(ops)]
        dt, rc, out = _call(main, op.argv)
        refs.append(_reference_loop())
        wall.append(dt)
        items += op.items
        outputs.record(op, rc, out)
    if len(wall) <= len(ops):
        # no input came round twice: repeat the first, untimed, for the determinism check
        dt, rc, out = _call(main, ops[0].argv)
        outputs.record(ops[0], rc, out)
    # each op is scaled by the median of the four loop times nearest it, so
    # that one disturbed loop does not scale an op on its own
    times = [
        dt * REF_LOOP_S / statistics.median(refs[max(0, i - 1) : i + 3])
        for i, dt in enumerate(wall)
    ]
    return outputs, {
        "op_p50_s": statistics.median(times),
        "items_per_s": items / sum(times),
        "ops": len(times),
        "op_tail_s": _tail(times),
        "op_times_s": times,
        "wall_op_p50_s": statistics.median(wall),
        "wall_items_per_s": items / sum(wall),
        "wall_op_times_s": wall,
        "ref_loop_s": refs,
    }


def run_traced(main, workload, ops, seconds, spans_path):
    tracer = Tracer()
    outputs = Outputs(workload)
    untraced_s = traced_s = 0.0
    items = passes = op_id = 0
    start = time.perf_counter()
    while passes == 0 or time.perf_counter() - start < seconds:
        for i, op in enumerate(ops):
            # alternate which side of the pair runs first, so warm-up favours neither
            for traced in ((False, True) if i % 2 == 0 else (True, False)):
                if traced:
                    dt, rc, out = _call(lambda argv: tracer.call(op_id, main, argv), op.argv)
                    traced_s += dt
                    items += op.items
                    op_id += 1
                else:
                    dt, rc, out = _call(main, op.argv)
                    untraced_s += dt
                outputs.record(op, rc, out)
        passes += 1
    tracer.write(spans_path)
    summary = tracer.summary()
    metrics = layer_metrics(summary, items)
    metrics["trace.overhead_frac"] = traced_s / untraced_s - 1
    return outputs, {
        "per_layer": metrics,
        "passes": passes,
        "items": items,
        "spans": len(tracer.start),
        "layers": summary,
    }


def main(argv=None) -> int:
    args = _parse(argv)
    root = Path(__file__).resolve().parent.parent
    src = root / "src"
    sys.path.insert(0, str(src))
    import numpy
    import gonlab.cli

    if not Path(gonlab.cli.__file__).resolve().is_relative_to(src.resolve()):
        print(f"gonlab imported from {gonlab.cli.__file__}, not from {src}", file=sys.stderr)
        return 2
    workload = WORKLOADS[args.workload]
    outdir = root / ".perfbench_out"
    ops = workload.ops(args.seed, outdir / "inputs")
    setup_s = time.time() - args.launched_at
    host_refs = [_reference_loop() for _ in range(SETUP_REF_LOOPS)]
    result = {
        "setup_s": setup_s * REF_LOOP_S / statistics.median(host_refs),
        "wall_setup_s": setup_s,
    }
    if not args.setup_only:
        if args.trace:
            spans_path = outdir / f"spans-{args.workload}-seed{args.seed}.tsv"
            outputs, measured = run_traced(
                gonlab.cli.main, workload, ops[: workload.trace_ops], args.seconds, spans_path
            )
            measured["spans_file"] = str(spans_path.relative_to(root))
        else:
            outputs, measured = run_untraced(gonlab.cli.main, workload, ops, args.seconds)
        result.update(measured)
        result.update(
            attempted=outputs.attempted,
            failed=outputs.failed,
            mismatched=outputs.mismatched,
            pass_ops=len(ops),
            peak_rss_mb=resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024,
            numpy=numpy.__version__,
        )
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
