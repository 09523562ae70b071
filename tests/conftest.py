import importlib.util
import os
import random
import sys
from dataclasses import dataclass, field
from pathlib import Path

import pytest

sys.path.insert(0, str(Path(__file__).parent))

from gonlab.budget import SearchBudget
from gonlab.graph import Multigraph, named_graph
from gonlab.randgraph import ConfigModelParams, sample_configuration

PERFBENCH = Path(__file__).resolve().parents[1] / "perfbench"
SRC = Path(__file__).resolve().parents[1] / "src"


@pytest.fixture(scope="session")
def cli_env() -> dict[str, str]:
    """The environment for a `python -m gonlab` subprocess: this checkout's
    `src` first on PYTHONPATH, as pytest's `pythonpath` puts it on sys.path."""
    path = os.pathsep.join(filter(None, [str(SRC), os.environ.get("PYTHONPATH")]))
    return dict(os.environ, PYTHONPATH=path)


@dataclass(frozen=True)
class RecordingBudget(SearchBudget):
    """A budget that keeps every meter it opens, so a test can read the
    step count of each search after the fact."""

    meters: list = field(default_factory=list, compare=False)

    def meter(self, what):
        opened = super().meter(what)
        self.meters.append(opened)
        return opened


def complete_graph(n: int) -> Multigraph:
    return Multigraph.from_edges(n, [(u, v) for u in range(n) for v in range(u + 1, n)])


def erdos_renyi_connected(n: int, p: float, seed: int) -> Multigraph | None:
    """Simple G(n, p) sample; None when disconnected."""
    rng = random.Random(seed)
    edges = [(u, v) for u in range(n) for v in range(u + 1, n) if rng.random() < p]
    if not edges:
        return None
    g = Multigraph.from_edges(n, edges)
    return g if g.is_connected() else None


def small_connected_corpus(min_count: int = 200):
    """Seeded corpus for the property suites: configuration-model samples
    with k in {2, 3, 4} plus Erdos-Renyi fillers, all connected, n <= 10."""
    graphs = []
    for k in (2, 3, 4):
        for n in range(4, 11):
            if (k * n) % 2 != 0:
                continue
            for attempt in range(4):
                params = ConfigModelParams(k=k, n=n, seed=1000 * k + 10 * n + attempt)
                g = sample_configuration(params)
                if g.is_connected():
                    graphs.append(g)
    seed = 0
    while len(graphs) < min_count:
        n = 4 + seed % 7
        p = (0.3, 0.45, 0.6)[seed % 3]
        g = erdos_renyi_connected(n, p, seed=777 + seed)
        if g is not None:
            graphs.append(g)
        seed += 1
    return graphs


def cubic_bounds_inputs(count: int, seed: int = 1) -> list[Multigraph]:
    """The first `count` graphs of the benchmark's cubic-bounds workload,
    from its own generator in perfbench/workloads.py."""
    spec = importlib.util.spec_from_file_location("perfbench_workloads", PERFBENCH / "workloads.py")
    workloads = importlib.util.module_from_spec(spec)
    sys.modules[spec.name] = workloads  # dataclasses look their module up
    spec.loader.exec_module(workloads)
    rng = workloads._rng(seed, workloads.CubicBounds.name)
    n = workloads.CUBIC_N
    return [Multigraph.from_edges(n, workloads.random_cubic_edges(n, rng)) for _ in range(count)]


@pytest.fixture(scope="session")
def pappus() -> Multigraph:
    return named_graph("pappus")


@pytest.fixture(scope="session")
def corpus():
    return small_connected_corpus()
