"""gonlab benchmark: four CLI workloads, end-to-end or traced per layer.

Run from the root of a checkout:

    python3 perfbench/run.py --workload cubic-bounds --seed 1 --seconds 50 --trace 0

Each measurement runs in a fresh single-threaded Python process
(``worker.py``) with every ``GONLAB_*`` variable cleared.  With
``--trace 0`` the last stdout line holds the end-to-end metrics; set-up is
repeated in several fresh processes and its median reported.  With
``--trace 1`` it holds the per-layer metrics of a traced run.  The line
before it carries the informational record (environment, source size,
tail latency, op counts), which is also written with the full result
under ``.perfbench_out/``.  See README.md in this directory.
"""

from __future__ import annotations

import argparse
import json
import os
import platform
import statistics
import subprocess
import sys
import time
from pathlib import Path

from workloads import WORKLOADS

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
# set-up probes before and after the measuring process, which is one more:
# the median of 11 spans two moments of the host, some 50 s apart
SETUP_PROBES = 5
PROBE_TIMEOUT_S = 5
WORKER_TIMEOUT_S = 110  # with ten probes, inside 180 s


def _env() -> dict[str, str]:
    env = {k: v for k, v in os.environ.items() if not k.startswith(("GONLAB_", "PYTHON"))}
    for var in ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS"):
        env[var] = "1"
    return env


def _worker(args, extra: list[str], timeout: float) -> dict:
    """Run one worker to completion and return its JSON result."""
    cmd = [
        sys.executable, str(HERE / "worker.py"),
        "--workload", args.workload, "--seed", str(args.seed),
        "--seconds", str(args.seconds), "--trace", str(args.trace),
        "--launched-at", repr(time.time()), *extra,
    ]
    proc = subprocess.run(
        cmd, cwd=ROOT, env=_env(), stdout=subprocess.PIPE, text=True, timeout=timeout
    )
    if proc.returncode != 0:
        raise RuntimeError(f"worker exited with {proc.returncode}")
    return json.loads(proc.stdout.strip().splitlines()[-1])


def _commit() -> str | None:
    head = ROOT / ".git" / "HEAD"
    try:
        ref = head.read_text().strip()
        if ref.startswith("ref: "):
            return (ROOT / ".git" / ref[5:]).read_text().strip()
        return ref
    except OSError:
        return None


def _src_lines() -> int:
    return sum(
        1
        for path in (ROOT / "src" / "gonlab").rglob("*.py")
        for line in path.read_text().splitlines()
        if line.strip()
    )


def main(argv=None) -> int:
    p = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    p.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    p.add_argument("--seed", type=int, required=True)
    p.add_argument("--seconds", type=int, required=True)
    p.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = p.parse_args(argv)
    if not (ROOT / "src" / "gonlab" / "cli.py").is_file():
        print(f"no gonlab sources under {ROOT / 'src'}", file=sys.stderr)
        return 2

    try:
        probes = SETUP_PROBES if not args.trace else 0
        setups = [_worker(args, ["--setup-only"], PROBE_TIMEOUT_S)["setup_s"] for _ in range(probes)]
        res = _worker(args, [], WORKER_TIMEOUT_S)
        setups += [_worker(args, ["--setup-only"], PROBE_TIMEOUT_S)["setup_s"] for _ in range(probes)]
    except (RuntimeError, subprocess.TimeoutExpired, ValueError, IndexError) as exc:
        print(f"benchmark run failed: {exc}", file=sys.stderr)
        return 1

    if args.trace:
        values = res["per_layer"]
    else:
        setups.append(res["setup_s"])
        values = {
            "setup_s": statistics.median(setups),
            "op_p50_s": res["op_p50_s"],
            "items_per_s": res["items_per_s"],
            "peak_rss_mb": res["peak_rss_mb"],
        }
    # BENCHMARK.json is the one list of metric names and units
    declared = json.loads((ROOT / "BENCHMARK.json").read_text())["per_layer" if args.trace else "end_to_end"]
    if sorted(values) != sorted(m["name"] for m in declared):
        print(f"measured metrics {sorted(values)} differ from BENCHMARK.json", file=sys.stderr)
        return 1
    metrics = {m["name"]: {"value": values[m["name"]], "unit": m["unit"]} for m in declared}

    correct = res["failed"] == 0 and res["mismatched"] == 0
    info = {
        "workload": args.workload,
        "seed": args.seed,
        "seconds": args.seconds,
        "trace": args.trace,
        "failed_frac": res["failed"] / res["attempted"],
        "env": {
            "nproc": os.cpu_count(),
            "python": platform.python_version(),
            "numpy": res["numpy"],
            "commit": _commit(),
        },
        "src_lines": _src_lines(),
        "setup_probes_s": setups,
        "worker": res,
    }
    line = {
        "correct": correct,
        "attempted": res["attempted"],
        "failed": res["failed"],
        "metrics": metrics,
    }
    outdir = ROOT / ".perfbench_out"
    outdir.mkdir(exist_ok=True)
    out = outdir / f"result-{args.workload}-seed{args.seed}-trace{args.trace}.json"
    out.write_text(json.dumps({"info": info, "result": line}, indent=1) + "\n")
    summary = {k: info[k] for k in ("failed_frac", "env", "src_lines")}
    summary["op_tail_s"] = res.get("op_tail_s")
    summary["ops"] = res.get("ops")
    summary["detail"] = str(out.relative_to(ROOT))
    print(json.dumps({"info": summary}))
    print(json.dumps(line))
    return 0


if __name__ == "__main__":
    sys.exit(main())
