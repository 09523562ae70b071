import math
import random
import time

import numpy as np
import pytest

from conftest import complete_graph, erdos_renyi_connected
from gonlab.graph import Multigraph, laplacian, named_graph
from gonlab.randgraph import ConfigModelParams, sample_configuration
from gonlab.spectral import (
    algebraic_connectivity,
    gonality_bound_formula,
    separator_lower_bound,
    spectral_gonality_bound,
    support_quadratic,
)
from oracles import lambda2_in, separations


def test_lambda2_against_numpy(corpus):
    for g in corpus[:15]:
        m = -laplacian(g).astype(float)
        s = algebraic_connectivity(g)
        assert abs(s.lambda2 - np.linalg.eigvalsh(m)[1]) <= 1e-9
        assert s.error_bound <= 1e-9  # spectral.TOL, met for n <= 100
        x = np.array(s.fiedler_vector)
        assert np.linalg.norm(m @ x - s.lambda2 * x) <= 1e-8
        assert abs(x.sum()) <= 1e-9


def test_lambda2_nonnegative(corpus):
    disconnected = [
        Multigraph.from_edges(4, [(0, 1), (2, 3)]),
        Multigraph.from_edges(5, [(0, 1), (0, 1), (1, 2), (3, 4)]),
        Multigraph(3, ()),
    ]
    for g in corpus[:15] + disconnected:
        s = algebraic_connectivity(g)
        assert s.lambda2 >= 0
        if not g.is_connected():
            assert s.lambda2 <= 1e-9


def test_lambda2_interval_is_exact(corpus, pappus):
    """The certified interval holds in exact arithmetic (oracles.lambda2_in),
    including Pappus, whose lambda2 has multiplicity 6."""
    graphs = corpus[:40] + [pappus, named_graph("path:2"), Multigraph.from_edges(4, [(0, 1), (2, 3)])]
    graphs += [complete_graph(n) for n in (3, 4, 5, 6)]
    assert sum(any(mult > 1 for _, _, mult in g.edges) for g in corpus[:40]) >= 10
    for g in graphs:
        assert lambda2_in(g, *algebraic_connectivity(g).interval)


def test_lambda2_oracle_rejects_wrong_interval(pappus):
    s = algebraic_connectivity(pappus)
    lo, hi = s.interval
    assert not lambda2_in(pappus, s.lambda2 + 1e-6, hi)
    assert not lambda2_in(pappus, lo, s.lambda2 - 1e-6)


def test_lambda2_large_cubic_certifies_quickly():
    g = sample_configuration(ConfigModelParams(k=3, n=400, seed=0))
    assert g.is_connected()
    start = time.perf_counter()
    s = algebraic_connectivity(g)
    assert time.perf_counter() - start < 2.0
    assert 0 < s.error_bound <= 1e-8
    assert abs(s.lambda2 - np.linalg.eigvalsh(-laplacian(g).astype(float))[1]) <= 1e-9


def test_k2_lambda2():
    s = algebraic_connectivity(named_graph("path:2"))
    assert abs(s.lambda2 - 2.0) <= 1e-9


def test_k4_lambda2():
    s = algebraic_connectivity(named_graph("k4"))
    assert abs(s.lambda2 - 4.0) <= 1e-9  # K_n spectrum: {0, n^(n-1)}


def test_complete_graph_lambda2():
    for n in (3, 5, 6):
        s = algebraic_connectivity(complete_graph(n))
        assert abs(s.lambda2 - n) <= 1e-9


def test_pappus_lambda2(pappus):
    s = algebraic_connectivity(pappus)
    assert abs(s.lambda2 - (3 - math.sqrt(3))) <= 1e-6
    assert s.error_bound <= 1e-9
    # residual certificate for the reported eigenpair
    m = -laplacian(pappus).astype(float)
    x = np.array(s.fiedler_vector)
    assert np.linalg.norm(m @ x - s.lambda2 * x) <= 1e-8
    assert abs(np.dot(x, np.ones(18))) <= 1e-7  # orthogonal to the constant vector


def test_disconnected_lambda2_zero_via_flag():
    g = Multigraph.from_edges(4, [(0, 1), (2, 3)])
    s = algebraic_connectivity(g)
    assert not s.connected
    assert abs(s.lambda2) <= 1e-9


def test_lambda2_monotone_under_edge_addition():
    rng = random.Random(41)
    for trial in range(20):
        n = rng.randint(4, 8)
        g = erdos_renyi_connected(n, 0.5, seed=900 + trial)
        if g is None:
            continue
        missing = [
            (u, v)
            for u in range(n)
            for v in range(u + 1, n)
            if g.eps(u, v) == 0
        ]
        if not missing:
            continue
        extra = missing[rng.randrange(len(missing))]
        bigger = Multigraph.from_edges(n, [(u, v) for u, v, m in g.edges for _ in range(m)] + [extra])
        assert (
            algebraic_connectivity(bigger).lambda2
            >= algebraic_connectivity(g).lambda2 - 1e-8
        )


def test_separator_lower_bound_pappus_value():
    # frozen from direct evaluation: 4*(3-sqrt3)*36 / (54 - 12*(3-sqrt3))
    lam = 3 - math.sqrt(3)
    value = separator_lower_bound(6, 6, lam, 3, 18)
    assert abs(value - 4.7076581449591) <= 1e-9


def test_separator_lower_bound_guards():
    with pytest.raises(ValueError):
        separator_lower_bound(0, 1, 2.0, 1, 2)
    with pytest.raises(ValueError):
        separator_lower_bound(1, 1, 2.0, 1, 2)  # denominator 1*2 - 2*2 < 0
    with pytest.raises(ValueError):
        separator_lower_bound(3, 3, 1.0, 2, 4)  # sides exceed n
    with pytest.raises(ValueError):
        separator_lower_bound(1, 1, 0.0, 2, 4)


def test_separator_bound_holds_on_small_graphs():
    """Every actual separation satisfies the eigenvalue lower bound."""
    checked = 0
    for seed in range(40):
        g = erdos_renyi_connected(5 + seed % 3, 0.5, seed=1300 + seed)
        if g is None:
            continue
        s = algebraic_connectivity(g)
        lam = max(s.lambda2 - s.error_bound, 1e-12)
        for a, b, c in separations(g):
            bound = separator_lower_bound(len(a), len(b), lam, g.max_valence, g.n)
            assert len(c) >= bound - 1e-7
            checked += 1
        if checked > 2000:
            break
    assert checked > 100


def test_gonality_bound_limit_zero():
    assert gonality_bound_formula(0.0, 3, 100) == 0.0
    assert gonality_bound_formula(1e-12, 3, 100) <= 1e-6


def test_gonality_bound_formula_k2_degenerate():
    """Frozen from direct evaluation: 0.5*(-23 + 3*sqrt(73)) = 1.31601.
    This exceeds the true gonality 1 of a single edge: the bound's
    derivation needs a component strictly smaller than n/2 to split off,
    which no 2-vertex graph can provide.  Everything with n >= 4 in the
    soundness corpus respects the bound."""
    value = gonality_bound_formula(2.0, 1, 2)
    assert abs(value - 0.5 * (-23 + 3 * math.sqrt(73))) <= 1e-12
    assert abs(value - 1.3160056179762947) <= 1e-12


def test_pappus_spectral_bound(pappus):
    bound = spectral_gonality_bound(pappus)
    assert abs(bound.value - 5.0395109095) <= 1e-6
    assert bound.low <= bound.value <= bound.high
    assert bound.ceiling == 6


def test_quadratic_identity(corpus, pappus):
    """The returned bound is the positive root of the support quadratic."""
    for g in corpus[:10] + [pappus]:
        bound = spectral_gonality_bound(g)
        q = support_quadratic(bound.value, bound.lambda2, bound.d_max, bound.n)
        scale = max(abs(bound.lambda2) * bound.n**2, 1.0)
        assert abs(q) / scale <= 1e-6


def test_spectral_bound_positive_and_below_n(corpus):
    for g in corpus[:20]:
        bound = spectral_gonality_bound(g)
        assert bound.value > 0
        assert bound.ceiling >= 1


def test_spectral_bound_rejects_disconnected():
    g = Multigraph.from_edges(4, [(0, 1), (2, 3)])
    with pytest.raises(ValueError):
        spectral_gonality_bound(g)


def test_algebraic_connectivity_determinism(corpus, pappus):
    for g in corpus[:15] + [pappus]:
        s1, s2 = algebraic_connectivity(g), algebraic_connectivity(g)
        assert s1.lambda2 == s2.lambda2
        assert s1.error_bound == s2.error_bound
        assert s1.fiedler_vector == s2.fiedler_vector
