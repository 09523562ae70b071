import math
import random
import time
from fractions import Fraction

import numpy as np
import pytest

from conftest import complete_graph, erdos_renyi_connected
from gonlab.graph import Multigraph, laplacian, named_graph
from gonlab.randgraph import ConfigModelParams, sample_configuration
from gonlab.spectral import (
    SpectralSummary,
    _psd_matrix,
    algebraic_connectivity,
    gonality_bound_bracket,
    spectral_gonality_bound,
)
from oracles import brute_gonality, lambda2_in, reference_spectral_certificate, spectral_ceiling_is


def test_lambda2_against_numpy(corpus):
    for g in corpus[:15]:
        m = -laplacian(g).astype(float)
        s = algebraic_connectivity(g)
        assert abs(s.lambda2 - np.linalg.eigvalsh(m)[1]) <= 1e-9
        assert s.error_bound <= 1e-9  # spectral.TOL, met for n <= 100
        x = np.array(s.fiedler_vector)
        assert np.linalg.norm(m @ x - s.lambda2 * x) <= 1e-8
        assert abs(x.sum()) <= 1e-9


def _config_samples():
    """Configuration-model samples of every valence 2 to 5 up to n = 200;
    some k = 2 samples are disconnected."""
    return [
        sample_configuration(ConfigModelParams(k=k, n=n, seed=7), i)
        for k in (2, 3, 4, 5)
        for n in (12, 50, 200)
        for i in (0, 1)
    ]


def _bits(value):
    """A float by its bits (so -0.0 differs from 0.0), anything else as is."""
    return value.hex() if isinstance(value, float) else value


def test_certificate_matches_the_fraction_reference(corpus, pappus):
    """Every certified number is bit-identical to the `Fraction` reference
    computed from the same estimate and Fiedler vector.  The cubic graph
    on 1000 vertices is one where 3r, not TOL/2, sets sigma."""
    big = sample_configuration(ConfigModelParams(k=3, n=1000, seed=7))
    graphs = corpus + [pappus] + _config_samples() + [big]
    disconnected = 0
    for g in graphs:
        got = spectral_gonality_bound(g) if g.is_connected() else algebraic_connectivity(g)
        disconnected += not g.is_connected()
        ref = reference_spectral_certificate(g, got.lambda2, got.fiedler_vector)
        assert {key: _bits(getattr(got, key)) for key in ref} == {
            key: _bits(value) for key, value in ref.items()
        }
    assert disconnected >= 1
    assert algebraic_connectivity(big).error_bound > 1e-9


def test_psd_matrix_is_the_negated_float_laplacian(corpus, pappus):
    """The matrix LAPACK sees, signs of zero included: LAPACK's reflector
    signs read them, so +0.0 entries would move lambda2's last bits."""
    graphs = corpus + [pappus, Multigraph(3, ()), Multigraph.from_edges(4, [(0, 1), (2, 3)])]
    for g in graphs + _config_samples():
        assert _psd_matrix(g).tobytes() == (-laplacian(g).astype(float)).tobytes()


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


def test_gonality_bound_limit_zero():
    assert gonality_bound_bracket(Fraction(0), 3, 100) == (0, 0)
    assert gonality_bound_bracket(Fraction(1e-12), 3, 100)[1] <= 1e-6


def test_gonality_bound_formula_k2_degenerate():
    """Frozen from direct evaluation: 0.5*(-23 + 3*sqrt(73)) = 1.31601.
    This exceeds the true gonality 1 of a single edge: the bound's
    derivation needs a component strictly smaller than n/2 to split off,
    which no 2-vertex graph can provide.  Everything with n >= 4 in the
    soundness corpus respects the bound."""
    for value in gonality_bound_bracket(Fraction(2), 1, 2):
        assert abs(value - 0.5 * (-23 + 3 * math.sqrt(73))) <= 1e-12
        assert abs(value - 1.3160056179762947) <= 1e-12


def test_spectral_ceiling_is_sound_on_the_smallest_graphs():
    """The formula is 1.316 on every 2-vertex graph (lambda2 = 2d there),
    so the ceiling is held at 1 below 3 vertices, where the bound is no
    theorem; K2 has gonality 1.  From 3 vertices on, the ceiling is the
    formula's and stays at or below the gonality on every connected
    multigraph with multiplicities up to 2."""
    for mult in (1, 2, 3):
        bound = spectral_gonality_bound(Multigraph.from_edges(2, [(0, 1)] * mult))
        assert bound.ceiling == 1 and bound.low > 1
    for m01 in range(3):
        for m02 in range(3):
            for m12 in range(3):
                edges = [(0, 1)] * m01 + [(0, 2)] * m02 + [(1, 2)] * m12
                g = Multigraph.from_edges(3, edges)
                if g.is_connected():
                    bound = spectral_gonality_bound(g)
                    assert bound.ceiling >= bound.low  # the formula's ceiling, not the trivial 1
                    assert bound.ceiling <= brute_gonality(g), edges


# (lambda2, d, n) where the float form of the bound, even less a relative
# slack of 1e-12, lands above an integer that the exact value is below
CANCELLATION_ROWS = [(3e-4, 3, 90007), (1e-4, 3, 270007), (3e-5, 3, 450003), (1e-5, 3, 337500)]


def _float_form_ceiling(lam, d, n):
    value = n / (2 * lam) * (-(7 * lam + 9 * d) + 3 * math.sqrt(9 * lam * lam + 14 * d * lam + 9 * d * d))
    return math.ceil(value - 1e-12 * max(1.0, value) - 1e-15)


@pytest.mark.parametrize("lam, d, n", CANCELLATION_ROWS)
def test_bound_ceiling_exact_where_float_form_cancels(lam, d, n):
    ceiling = math.ceil(gonality_bound_bracket(Fraction(lam), d, n)[0])
    assert spectral_ceiling_is(Fraction(lam), d, n, ceiling)
    assert not spectral_ceiling_is(Fraction(lam), d, n, _float_form_ceiling(lam, d, n))


def test_bound_ceiling_against_squared_oracle():
    """Dyadic lambda2 spread log-uniformly over [1e-8, 2d]."""
    rng = random.Random(8)
    for _ in range(2000):
        d = rng.choice((2, 3, 4, 6))
        n = rng.randint(4, 10**6)
        lam = Fraction(2 ** rng.uniform(math.log2(1e-8), math.log2(2 * d)))
        lower, upper = gonality_bound_bracket(lam, d, n)
        assert 0 < lower <= upper
        assert spectral_ceiling_is(lam, d, n, math.ceil(lower))


def test_spectral_bound_certifies_from_interval_ends(monkeypatch):
    """The first cancellation row through `spectral_gonality_bound`: the
    ceiling comes from the exact low end of the lambda2 interval."""
    lam, err = 3e-4, 1e-18
    summary = SpectralSummary(n=90007, d_max=3, lambda2=lam, error_bound=err, connected=True, fiedler_vector=())
    monkeypatch.setattr("gonlab.spectral.algebraic_connectivity", lambda g: summary)
    bound = spectral_gonality_bound(named_graph("k4"))  # its summary is replaced
    assert bound.ceiling == 8
    assert spectral_ceiling_is(Fraction(lam) - Fraction(err), 3, 90007, 8)
    assert Fraction(bound.low) <= gonality_bound_bracket(Fraction(lam) - Fraction(err), 3, 90007)[0]
    assert Fraction(bound.high) >= gonality_bound_bracket(Fraction(lam) + Fraction(err), 3, 90007)[1]
    assert bound.low <= bound.value <= bound.high


def test_pappus_spectral_bound(pappus):
    bound = spectral_gonality_bound(pappus)
    assert abs(bound.value - 5.0395109095) <= 1e-6
    assert bound.low <= bound.value <= bound.high
    assert bound.ceiling == 6


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
