"""The four benchmark workloads: seeded inputs, the op cycle and output checks.

An op is one in-process ``gonlab.cli.main(argv)`` call; an item is the unit
counted for throughput (one demo, one graph or one harness sample).  Each
workload turns the benchmark seed into a fixed list of ops, its *pass*.
Runs cycle through the pass, so two runs of one seed see the same inputs in
the same order.  The inputs depend only on the seed and on this file, never
on the program under test.
"""

from __future__ import annotations

import json
import random
from dataclasses import dataclass
from pathlib import Path

# A pass holds more distinct inputs than a run reaches, so a run's median
# covers as many inputs as it can.  Cubic graphs at n=16 cost about 0.08 s
# each (per-graph spread 36%), so a 50 s run sees some 500 of them.  At
# n=18 (0.2 s, spread 54%) the mean over the fewer graphs a run reaches
# moved between seeds by a third of the bound, and at n=24 one graph costs
# 0.7-4.7 s.
CUBIC_N = 16
CUBIC_GRAPHS = 512

# Harness workloads: samples per op and ops per pass (each op its own seed).
# Small ops of 5 samples (about 0.2 s) are short next to the host's swings,
# so the reference loop timed between ops (worker.py) follows them.
LARGE_N, LARGE_SAMPLES, LARGE_OPS = 100, 2, 8
SMALL_N, SMALL_SAMPLES, SMALL_OPS = 12, 5, 160


@dataclass(frozen=True)
class Op:
    argv: tuple[str, ...]
    items: int


class Workload:
    """One set of inputs: `ops` builds the pass, `failed_items` checks an output."""

    name = ""
    # traced runs repeat whole passes over the first `trace_ops` ops, so their
    # work counts are exact; each prefix takes about 5 s, traced and untraced
    trace_ops = 1

    def ops(self, seed: int, workdir: Path) -> list[Op]:
        raise NotImplementedError

    def failed_items(self, op: Op, rc: int | None, out: str) -> int:
        """Items of `op` whose output is wrong; all of them when the op failed."""
        if rc != 0:
            return op.items
        try:
            return self._check(op, json.loads(out))
        except (KeyError, TypeError, ValueError):  # includes malformed JSON
            return op.items

    def _check(self, op: Op, payload: dict) -> int:
        raise NotImplementedError


def _rng(seed: int, salt: str) -> random.Random:
    # String seeds hash with SHA-512 inside `random`, independent of PYTHONHASHSEED.
    return random.Random(f"{salt}:{seed}")


class PappusCert(Workload):
    name = "pappus-cert"

    def ops(self, seed, workdir):
        return [Op(("pappus-demo", "--format", "json"), 1)]

    def _check(self, op, payload):
        gon = payload["gonality"]
        witness_degree = sum(int(term.split(":")[1]) for term in gon["witness"].split(","))
        ok = (
            gon["value"] == 6
            and payload["bracket"] == {"lower": 6, "upper": 9}
            and witness_degree == 6
        )
        return 0 if ok else 1


def random_cubic_edges(n: int, rng: random.Random) -> list[tuple[int, int]]:
    """Connected loop-free cubic multigraph from the configuration model.

    A uniform matching of the 3n half-edges, resampled on a self-loop or
    when the result is disconnected; parallel edges are kept.
    """
    while True:
        half = [v for v in range(n) for _ in range(3)]
        rng.shuffle(half)
        pairs = [(half[i], half[i + 1]) for i in range(0, len(half), 2)]
        if any(a == b for a, b in pairs):
            continue
        adj: list[set[int]] = [set() for _ in range(n)]
        for a, b in pairs:
            adj[a].add(b)
            adj[b].add(a)
        seen, stack = {0}, [0]
        while stack:
            for w in adj[stack.pop()] - seen:
                seen.add(w)
                stack.append(w)
        if len(seen) == n:
            return pairs


class CubicBounds(Workload):
    name = "cubic-bounds"
    trace_ops = 64

    def ops(self, seed, workdir):
        rng = _rng(seed, self.name)
        outdir = workdir / f"cubic-{seed}"
        outdir.mkdir(parents=True, exist_ok=True)
        ops = []
        for i in range(CUBIC_GRAPHS):
            pairs = random_cubic_edges(CUBIC_N, rng)
            text = f"{CUBIC_N} {len(pairs)}\n" + "".join(f"{a} {b}\n" for a, b in pairs)
            path = outdir / f"g{i:04d}.txt"
            # rewriting an unchanged file took a noisy 30-200 ms per 512; the
            # set-up probes of a run share its seed, so only the first writes
            if not path.is_file() or path.read_text() != text:
                path.write_text(text)
            ops.append(Op(("bounds", str(path), "--format", "json"), 1))
        return ops

    def _check(self, op, payload):
        ok = (
            payload["n"] == CUBIC_N
            and not payload["budget_limited"]
            and 1 <= payload["lower"] <= payload["upper"]
        )
        return 0 if ok else 1


class Harness(Workload):
    """``gonlab random`` at one n; each op of the pass draws its own seed."""

    def __init__(self, name, n, samples, ops_per_pass, trace_ops, exact_gonality):
        self.name = name
        self.n, self.samples, self.ops_per_pass = n, samples, ops_per_pass
        self.trace_ops = trace_ops
        self.exact_gonality = exact_gonality

    def ops(self, seed, workdir):
        rng = _rng(seed, self.name)
        return [
            Op(
                (
                    "random", "--k", "3", "--n", str(self.n),
                    "--samples", str(self.samples),
                    "--seed", str(rng.getrandbits(31)),
                    "--format", "json",
                ),
                self.samples,
            )
            for _ in range(self.ops_per_pass)
        ]

    def _check(self, op, payload):
        records = payload["records"]
        if (
            payload["summary"]["sandwich_violations"] != 0
            or [r["index"] for r in records] != list(range(self.samples))
        ):
            return op.items
        return sum(1 for r in records if not self._record_ok(r))

    def _record_ok(self, r) -> bool:
        if r["n"] != self.n:
            return False
        if r["lower"] is not None and not r["lower"] <= r["upper"]:
            return False
        if r["gonality"] is not None:
            return r["lower"] <= r["gonality"] <= r["upper"] and r["sandwich_ok"] is True
        # at n above every cap the gonality is never computed; at small n
        # every connected sample must get one
        return not (self.exact_gonality and r["connected"])


WORKLOADS = {
    w.name: w
    for w in (
        PappusCert(),
        CubicBounds(),
        Harness("harness-large", LARGE_N, LARGE_SAMPLES, LARGE_OPS, 2, exact_gonality=False),
        Harness("harness-small", SMALL_N, SMALL_SAMPLES, SMALL_OPS, 20, exact_gonality=True),
    )
}
