"""Configuration-model sampling of random k-regular multigraphs, plus a
Monte Carlo harness that runs the bound pipeline over samples.

A sample is a uniform perfect matching on the k*n half-edges (k per
vertex), generated by a Fisher-Yates shuffle of the half-edge array paired
consecutively, then projected to a multigraph.  Matchings containing a
self-loop pair are rejected and resampled wholesale, which conditions
uniformly on the loop-free slice; `simple` mode additionally rejects
parallel edges.

RNG contract: numpy's PCG64 generator.  Sample i uses the derived seed
seed XOR splitmix64(i), so workers can evaluate samples concurrently with
results independent of scheduling, and a fixed (params, index) pair always
yields the same graph.

Caution on interpretation: the published asymptotic constants for random
cubic graphs describe n -> infinity behavior; the harness only reports
empirical distributions at finite n and cannot confirm them.
"""

from __future__ import annotations

from concurrent.futures import ProcessPoolExecutor
from dataclasses import dataclass
from fractions import Fraction

import numpy as np

from gonlab.bounds import full_report
from gonlab.budget import DEFAULT_BUDGET, SearchBudget
from gonlab.gonality import GonalityCertificate, exact_gonality
from gonlab.graph import Multigraph

# Unused here: perfbench/tracing.py patches these three names and exits if one is gone.
from gonlab.expansion import b_u, cheeger_profile  # noqa: F401
from gonlab.gonality import independence_upper_bound  # noqa: F401


def _splitmix64(x: int) -> int:
    x = (x + 0x9E3779B97F4A7C15) & 0xFFFFFFFFFFFFFFFF
    z = x
    z = ((z ^ (z >> 30)) * 0xBF58476D1CE4E5B9) & 0xFFFFFFFFFFFFFFFF
    z = ((z ^ (z >> 27)) * 0x94D049BB133111EB) & 0xFFFFFFFFFFFFFFFF
    return z ^ (z >> 31)


@dataclass(frozen=True)
class ConfigModelParams:
    """Sampling parameters; k*n must be even so a perfect matching exists."""

    k: int
    n: int
    seed: int
    mode: str = "multigraph"
    max_resamples: int = 100_000

    def __post_init__(self):
        if self.k < 2:
            raise ValueError("regularity k must be at least 2")
        if self.n < 2:
            raise ValueError("need at least 2 vertices")
        if (self.k * self.n) % 2 != 0:
            raise ValueError("k*n must be even")
        if self.mode not in ("multigraph", "simple"):
            raise ValueError("mode must be 'multigraph' or 'simple'")

    def sample_seed(self, index: int) -> int:
        return (self.seed & 0xFFFFFFFFFFFFFFFF) ^ _splitmix64(index)


def sample_configuration(params: ConfigModelParams, sample_index: int = 0) -> Multigraph:
    """One k-regular multigraph from the configuration model.

    multigraph mode keeps parallel edges and resamples only on self-loops;
    simple mode resamples until loop- and parallel-free.
    """
    rng = np.random.Generator(np.random.PCG64(params.sample_seed(sample_index)))
    half_edges = np.repeat(np.arange(params.n), params.k)
    for _ in range(params.max_resamples):
        rng.shuffle(half_edges)
        pairs = half_edges.reshape(-1, 2)
        if np.any(pairs[:, 0] == pairs[:, 1]):
            continue  # loop: resample the whole matching
        edge_list = [(int(a), int(b)) for a, b in pairs]
        if params.mode == "simple":
            seen = set()
            ok = True
            for a, b in edge_list:
                key = (a, b) if a < b else (b, a)
                if key in seen:
                    ok = False
                    break
                seen.add(key)
            if not ok:
                continue
        return Multigraph.from_edges(params.n, edge_list)
    raise RuntimeError(
        f"no admissible matching within {params.max_resamples} resamples "
        f"(k={params.k}, n={params.n}, mode={params.mode})"
    )


@dataclass(frozen=True)
class ExperimentCaps:
    """Per-sample size caps for the harness; search limits come from the
    SearchBudget that `run_experiment` passes to every engine."""

    gonality_cap: int = 12
    cheeger_cap: int = 20
    separator_cap: int = 16
    tol: float = 1e-9


@dataclass(frozen=True)
class ExperimentRecord:
    """Per-sample statistics, projected from the sample's bound report; None
    marks quantities skipped by caps or budgets, or inapplicable to
    disconnected samples."""

    index: int
    graph_hash: str
    n: int
    m: int
    connected: bool
    simple: bool
    lambda2: float | None = None
    lambda2_error: float | None = None
    spectral_value: float | None = None
    spectral_ceiling: int | None = None
    h: Fraction | None = None
    separator_bound: Fraction | None = None
    cheeger_bound: Fraction | None = None
    lower: int | None = None
    upper: int | None = None
    gonality: int | None = None
    sandwich_ok: bool | None = None


@dataclass(frozen=True)
class ExperimentSummary:
    samples: int
    connected_samples: int
    simple_samples: int
    lambda2_min: float | None
    lambda2_mean: float | None
    lambda2_max: float | None
    spectral_per_n_min: float | None
    spectral_per_n_mean: float | None
    spectral_per_n_max: float | None
    gonality_evaluated: int
    sandwich_violations: int
    note: str = (
        "published asymptotic constants are n->infinity statements; "
        "finite-n distributions reported here only illustrate them"
    )


def _evaluate_sample(
    params: ConfigModelParams, index: int, caps: ExperimentCaps, budget: SearchBudget
) -> ExperimentRecord:
    g = sample_configuration(params, index)
    sample = dict(
        index=index,
        graph_hash=g.canonical_hash(),
        n=g.n,
        m=g.m,
        connected=g.is_connected(),
        simple=all(mult == 1 for _, _, mult in g.edges),
    )
    if not sample["connected"]:
        return ExperimentRecord(**sample)
    in_cap = g.n <= caps.gonality_cap  # upper bounds are reported only next to a gonality
    report = full_report(
        g,
        budget,
        exact_cheeger_cap=caps.cheeger_cap,
        separator_cap=caps.separator_cap,
        tol=caps.tol,
        upper_bounds=in_cap,
    )
    gonality = sandwich = None
    if in_cap:
        result = exact_gonality(g, budget, upper=report.upper)
        if isinstance(result, GonalityCertificate):
            gonality = result.value
            sandwich = report.lower <= gonality <= report.upper
    return ExperimentRecord(
        **sample,
        lambda2=report.spectral.lambda2,
        lambda2_error=report.spectral.lambda2_error,
        spectral_value=report.spectral.value,
        spectral_ceiling=report.spectral.ceiling,
        h=report.rows[-1].h_u if report.rows else None,
        separator_bound=report.separator_bound[0] if report.separator_bound else None,
        cheeger_bound=report.cheeger_bound[0] if report.cheeger_bound else None,
        lower=report.lower if in_cap else None,
        upper=report.upper,
        gonality=gonality,
        sandwich_ok=sandwich,
    )


def run_experiment(
    params: ConfigModelParams,
    samples: int,
    caps: ExperimentCaps = ExperimentCaps(),
    threads: int = 1,
    budget: SearchBudget = DEFAULT_BUDGET,
) -> tuple[list[ExperimentRecord], ExperimentSummary]:
    """Evaluate the bound pipeline over `samples` independent draws.

    Records come back ordered by sample index whatever the thread count,
    so output is reproducible byte for byte.  The candidate and node caps
    of `budget` apply to each sample; its deadline, an absolute time,
    applies to the whole run.
    """
    if samples < 0:
        raise ValueError("sample count must be non-negative")
    indices = list(range(samples))
    if threads > 1 and samples > 1:
        with ProcessPoolExecutor(max_workers=threads) as pool:
            records = list(
                pool.map(
                    _evaluate_sample,
                    [params] * samples,
                    indices,
                    [caps] * samples,
                    [budget] * samples,
                )
            )
    else:
        records = [_evaluate_sample(params, i, caps, budget) for i in indices]

    lam = [r.lambda2 for r in records if r.lambda2 is not None]
    per_n = [r.spectral_value / r.n for r in records if r.spectral_value is not None]
    summary = ExperimentSummary(
        samples=samples,
        connected_samples=sum(1 for r in records if r.connected),
        simple_samples=sum(1 for r in records if r.simple),
        lambda2_min=min(lam) if lam else None,
        lambda2_mean=sum(lam) / len(lam) if lam else None,
        lambda2_max=max(lam) if lam else None,
        spectral_per_n_min=min(per_n) if per_n else None,
        spectral_per_n_mean=sum(per_n) / len(per_n) if per_n else None,
        spectral_per_n_max=max(per_n) if per_n else None,
        gonality_evaluated=sum(1 for r in records if r.gonality is not None),
        sandwich_violations=sum(1 for r in records if r.sandwich_ok is False),
    )
    return records, summary
