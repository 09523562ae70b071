"""Outside-in span tracing of gonlab's layer boundaries.

The library's modules bind each other's functions with ``from ... import``,
so a call from one layer into another looks the callee up in the caller's
module namespace.  `Tracer` replaces those names, for the duration of one
op, with wrappers that record a span (name, start, end, parent, op id).
Nothing under ``src/`` is edited.

Spans live in flat arrays while the run lasts and are written out once at
the end.  A span's self time is its duration minus the durations of its
direct children; calls are single-threaded, so children never overlap.
"""

from __future__ import annotations

import importlib
import time
from array import array
from collections import defaultdict
from pathlib import Path

ROOT = "cli.main"

# span name -> the (module, attribute) names through which callers reach it
BOUNDARIES = {
    "cli.emit": [("gonlab.cli", "emit")],
    "bounds.full_report": [("gonlab.cli", "full_report")],
    "expansion.cheeger_profile": [
        ("gonlab.cli", "cheeger_profile"),
        ("gonlab.bounds", "cheeger_profile"),
        ("gonlab.randgraph", "cheeger_profile"),
    ],
    "expansion.b_u": [
        ("gonlab.cli", "b_u"),
        ("gonlab.bounds", "b_u"),
        ("gonlab.randgraph", "b_u"),
    ],
    "gonality.exact_gonality": [
        ("gonlab.cli", "exact_gonality"),
        ("gonlab.randgraph", "exact_gonality"),
    ],
    "gonality.independence_upper_bound": [
        ("gonlab.gonality", "independence_upper_bound"),
        ("gonlab.bounds", "independence_upper_bound"),
        ("gonlab.randgraph", "independence_upper_bound"),
    ],
    "reduction.positive_rank_obstruction": [("gonlab.gonality", "_positive_rank_obstruction")],
    "spectral.algebraic_connectivity": [
        ("gonlab.cli", "algebraic_connectivity"),
        ("gonlab.spectral", "algebraic_connectivity"),
    ],
    "randgraph.run_experiment": [("gonlab.cli", "run_experiment")],
    "randgraph.sample_configuration": [
        ("gonlab.cli", "sample_configuration"),
        ("gonlab.randgraph", "sample_configuration"),
    ],
}

# attributes of a return value kept with its span
OBSERVE = {
    "expansion.b_u": lambda cert: float(cert.optimal),
    "spectral.algebraic_connectivity": lambda summary: summary.error_bound,
}


class Tracer:
    """Span store plus the patches that feed it."""

    def __init__(self):
        self.names: list[str] = [ROOT, *BOUNDARIES]
        self._name_id = {name: i for i, name in enumerate(self.names)}
        self.name = array("i")
        self.parent = array("l")
        self.op = array("l")
        self.start = array("d")
        self.end = array("d")
        self.attr: dict[int, float] = {}
        self._stack: list[int] = []
        self._op_id = -1
        self._patches: list[tuple[object, str, object, object]] = []
        for span, targets in BOUNDARIES.items():
            for module_name, attr in targets:
                # a boundary the program no longer has is fatal, so that a
                # renamed layer is renamed here too instead of reading 0
                module = importlib.import_module(module_name)
                original = getattr(module, attr)
                wrapper = self._wrap(self._name_id[span], original, OBSERVE.get(span))
                self._patches.append((module, attr, original, wrapper))

    def _open(self, name_id: int) -> int:
        idx = len(self.start)
        self.name.append(name_id)
        self.parent.append(self._stack[-1] if self._stack else -1)
        self.op.append(self._op_id)
        self.end.append(0.0)
        self._stack.append(idx)
        self.start.append(time.perf_counter())
        return idx

    def _close(self, idx: int) -> None:
        self.end[idx] = time.perf_counter()
        self._stack.pop()

    def _wrap(self, name_id, fn, observe):
        def traced(*args, **kwargs):
            idx = self._open(name_id)
            try:
                result = fn(*args, **kwargs)
            finally:
                self._close(idx)
            if observe is not None:
                self.attr[idx] = observe(result)
            return result

        return traced

    def call(self, op_id: int, fn, *args):
        """Run ``fn(*args)`` as op `op_id` with every boundary patched."""
        self._op_id = op_id
        for module, attr, _, wrapper in self._patches:
            setattr(module, attr, wrapper)
        try:
            return self._wrap(self._name_id[ROOT], fn, None)(*args)
        finally:
            for module, attr, original, _ in self._patches:
                setattr(module, attr, original)

    def summary(self) -> dict[str, dict[str, float]]:
        """Per span name: calls, total, self and max seconds, max attribute."""
        n = len(self.start)
        dur = [self.end[i] - self.start[i] for i in range(n)]
        child = [0.0] * n
        for i in range(n):
            if self.parent[i] >= 0:
                child[self.parent[i]] += dur[i]
        out = {
            name: {"calls": 0, "total_s": 0.0, "self_s": 0.0, "max_s": 0.0, "attr_sum": 0.0, "attr_max": 0.0}
            for name in self.names
        }
        for i in range(n):
            s = out[self.names[self.name[i]]]
            s["calls"] += 1
            s["total_s"] += dur[i]
            s["self_s"] += dur[i] - child[i]
            s["max_s"] = max(s["max_s"], dur[i])
            if i in self.attr:
                s["attr_sum"] += self.attr[i]
                s["attr_max"] = max(s["attr_max"], self.attr[i])
        return out

    def write(self, path: Path) -> None:
        """All spans as TSV: op, span index, parent index, name, start, end."""
        with path.open("w") as fh:
            fh.write("op\tspan\tparent\tname\tstart\tend\n")
            for i in range(len(self.start)):
                fh.write(
                    f"{self.op[i]}\t{i}\t{self.parent[i]}\t{self.names[self.name[i]]}\t"
                    f"{self.start[i]:.9f}\t{self.end[i]:.9f}\n"
                )


def layer_metrics(summary: dict, items: int) -> dict[str, float]:
    """The per-layer metrics, per item; a layer that was not called reads 0."""
    def per_item(value):
        return value / items

    obstruction = summary["reduction.positive_rank_obstruction"]
    separator = summary["expansion.b_u"]
    cheeger = summary["expansion.cheeger_profile"]
    eigh = summary["spectral.algebraic_connectivity"]
    return {
        "reduction.obstruction_s": per_item(obstruction["total_s"]),
        "reduction.obstruction_us_per_call": (
            obstruction["total_s"] / obstruction["calls"] * 1e6 if obstruction["calls"] else 0.0
        ),
        "gonality.candidates": per_item(obstruction["calls"]),
        "gonality.search_s": per_item(summary["gonality.exact_gonality"]["self_s"]),
        "gonality.independence_s": per_item(summary["gonality.independence_upper_bound"]["total_s"]),
        "expansion.separator_s": per_item(separator["total_s"]),
        "expansion.separator_calls": per_item(separator["calls"]),
        "expansion.separator_max_s": separator["max_s"],
        "expansion.separator_optimal_frac": (
            separator["attr_sum"] / separator["calls"] if separator["calls"] else 0.0
        ),
        "expansion.cheeger_s": per_item(cheeger["total_s"]),
        "expansion.cheeger_calls": per_item(cheeger["calls"]),
        "spectral.eigh_s": per_item(eigh["total_s"]),
        "spectral.eigh_calls": per_item(eigh["calls"]),
        "spectral.err_max": eigh["attr_max"],
        "randgraph.sample_s": per_item(summary["randgraph.sample_configuration"]["total_s"]),
        "randgraph.harness_self_s": per_item(summary["randgraph.run_experiment"]["self_s"]),
        "bounds.report_s": per_item(summary["bounds.full_report"]["total_s"]),
        "bounds.self_s": per_item(summary["bounds.full_report"]["self_s"]),
        "cli.self_s": per_item(summary[ROOT]["self_s"]),
        "cli.emit_s": per_item(summary["cli.emit"]["total_s"]),
    }


# counts that must repeat exactly between two runs of one seed
EXACT = (
    "gonality.candidates",
    "expansion.separator_calls",
    "expansion.separator_optimal_frac",
    "expansion.cheeger_calls",
    "spectral.eigh_calls",
    "spectral.err_max",
)
