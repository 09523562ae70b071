import itertools
import random
from fractions import Fraction

import pytest

from conftest import RecordingBudget, complete_graph, cubic_bounds_inputs
from gonlab.budget import BudgetExceededError, SearchBudget
from gonlab.expansion import (
    _packing,
    _violation,
    b_u,
    cheeger_profile,
    edge_boundary,
    sweep_cuts,
)
from gonlab.graph import Multigraph, components, named_graph
from gonlab.randgraph import ConfigModelParams, sample_configuration
from oracles import (
    brute_b_u,
    brute_boundary,
    brute_cheeger_profile,
    brute_cheeger_witness,
    brute_h_u,
)


def test_edge_boundary_trivial():
    g = named_graph("path:2")
    assert edge_boundary(g, set()) == 0
    assert edge_boundary(g, {0, 1}) == 0
    assert edge_boundary(g, {0}) == 1


def test_edge_boundary_counts_multiplicity():
    g = Multigraph.from_edges(3, [(0, 1), (0, 1), (1, 2)])
    assert edge_boundary(g, {0}) == 2
    assert edge_boundary(g, {0, 1}) == 1


def test_edge_boundary_matches_oracle(corpus):
    import random

    rng = random.Random(37)
    for g in corpus[:25]:
        s = frozenset(v for v in range(g.n) if rng.random() < 0.4)
        assert edge_boundary(g, s) == brute_boundary(g, s)


def test_cheeger_profile_k4():
    profile = cheeger_profile(named_graph("k4"))
    assert profile.h == 2
    assert profile.points[1 - 1].value == 3
    assert profile.points[2 - 1].value == 2


def test_cheeger_profile_c6():
    profile = cheeger_profile(named_graph("cycle:6"))
    assert profile.h == Fraction(2, 3)
    # witness: three consecutive vertices
    w = profile.points[3 - 1].witness
    assert len(w) == 3
    assert edge_boundary(named_graph("cycle:6"), w) == 2


def test_pappus_half_witness(pappus):
    """The witness achieving h(pappus) = 7/9 is a 9-set with boundary 7."""
    profile = cheeger_profile(pappus)
    witness = profile.points[9 - 1].witness
    assert len(witness) == 9
    assert edge_boundary(pappus, witness) == 7


def test_profile_monotone_and_witness_valid(corpus):
    for g in corpus[:25]:
        profile = cheeger_profile(g)
        values = [p.value for p in profile.points]
        assert all(a >= b for a, b in zip(values, values[1:]))
        for p in profile.points:
            assert 0 < len(p.witness) <= p.j
            assert Fraction(edge_boundary(g, p.witness), len(p.witness)) == p.value


def test_connectivity_pruning_matches_all_subsets(corpus):
    """Exact profile from connected-only enumeration equals the
    all-subsets brute force on every small graph."""
    for g in [x for x in corpus if x.n <= 10][:12]:
        profile = cheeger_profile(g)
        for p in profile.points:
            assert p.value == brute_h_u(g, p.j), (g.edges, p.j)


def test_cheeger_witness_tie_break_matches_oracle(corpus, pappus):
    """Witnesses are the lexicographically least connected minimizers."""
    graphs = [x for x in corpus if x.n <= 9][:30] + [pappus]
    assert sum(any(mult > 1 for _, _, mult in g.edges) for g in graphs) >= 10
    for g in graphs:
        profile = cheeger_profile(g)
        for p in profile.points:
            if g.n <= 9 or p.j <= 3:
                assert p.witness == brute_cheeger_witness(g, p.j), (g.edges, p.j)


def test_cut_scan_matches_all_subsets_profile(pappus):
    """The scan skips subtrees that cannot set a new running minimum; every
    value and witness still equals the all-subsets oracle's, on graphs
    large enough for the cut to fire: Pappus, the first eight
    cubic-bounds inputs, input 149 (its lex-least size-8 minimizer has a
    boundary of exactly ceil(8 * r) - 1, one below the cut) and four
    quartic and quintic multigraphs."""
    multigraphs = [
        sample_configuration(ConfigModelParams(k=k, n=n, seed=seed))
        for k, n, seed in ((4, 14, 0), (4, 16, 1), (5, 14, 0), (5, 16, 2))
    ]
    assert all(g.is_connected() and any(m > 1 for _, _, m in g.edges) for g in multigraphs)
    cubic = cubic_bounds_inputs(150)
    for g in [pappus] + cubic[:8] + [cubic[149]] + multigraphs:
        profile = cheeger_profile(g)
        assert [(p.value, p.witness) for p in profile.points] == brute_cheeger_profile(g), g.edges


def _random_connected_subsets(g, rng, count):
    """`count` connected subsets of 1 to n//2 vertices, each grown from a
    random vertex by random neighbours."""
    out = []
    for _ in range(count):
        subset = {rng.randrange(g.n)}
        target = rng.randint(1, g.n // 2)
        while len(subset) < target:
            frontier = sorted({w for v in subset for w, _ in g.neighbors(v)} - subset)
            subset.add(rng.choice(frontier))
        out.append(frozenset(subset))
    return out


def test_seeded_scan_matches_all_subsets_profile(corpus, pappus):
    """Seeds only lower the scan's running bounds, never below the least
    boundary of their size, so a seeded scan keeps every value and witness
    of the all-subsets oracle.  Seeded with every connected subset of at
    most 3 vertices plus random connected ones, with random subsets that
    need not be connected, and with the sweep cuts of a random vector, on
    the corpus, Pappus and the cubic-bounds inputs of the cut test."""
    rng = random.Random(22)
    cubic = cubic_bounds_inputs(150)
    for g in corpus + [pappus] + cubic[:8] + [cubic[149]]:
        oracle = brute_cheeger_profile(g)
        small = [
            frozenset(c)
            for size in range(1, min(3, g.n // 2) + 1)
            for c in itertools.combinations(range(g.n), size)
            if len(components(g, frozenset(range(g.n)) - frozenset(c))) == 1
        ]
        arbitrary = [
            frozenset(rng.sample(range(g.n), rng.randint(1, g.n // 2))) for _ in range(20)
        ]
        vector = [rng.random() for _ in range(g.n)]
        for seeds in (
            small + _random_connected_subsets(g, rng, 20),
            arbitrary,
            sweep_cuts(g, vector),
        ):
            profile = cheeger_profile(g, seeds=seeds)
            assert [(p.value, p.witness) for p in profile.points] == oracle, g.edges


def test_sweep_cuts_are_the_sorted_prefixes():
    """Ascending, then descending, ties by index, prefixes of at most n/2
    vertices."""
    g = named_graph("path:6")
    vector = [0.0, 0.0, -1.0, 2.0, 1.0, 3.0]  # ascending 2, 0, 1 (a tie), 4, ...
    assert sweep_cuts(g, vector) == [
        frozenset({2}),
        frozenset({0, 2}),
        frozenset({0, 1, 2}),
        frozenset({5}),  # descending 5, 3, 4
        frozenset({3, 5}),
        frozenset({3, 4, 5}),
    ]
    with pytest.raises(ValueError, match="entries"):
        sweep_cuts(g, vector[:-1])


@pytest.mark.parametrize(
    "seed",
    [frozenset(), frozenset(range(4)), frozenset({0, 9}), frozenset({-1})],
    ids=["empty", "too-large", "out-of-range", "negative"],
)
def test_cheeger_profile_rejects_invalid_seeds(seed):
    """A seed is a set of 1 to n//2 vertices of the graph."""
    with pytest.raises(ValueError, match="seed"):
        cheeger_profile(named_graph("path:6"), seeds=[seed])


def test_regular_half_edge_identity(corpus):
    """For k-regular graphs, 2*e(U) = k|U| + |bd U| ... - |bd U|, i.e.
    e(U) = (k|U| - |bd U|)/2 internal edges plus the boundary."""
    import itertools

    for g in [x for x in corpus if x.regularity() is not None and x.n <= 8][:6]:
        k = g.regularity()
        for size in range(1, g.n // 2 + 1):
            for u_set in itertools.combinations(range(g.n), size):
                boundary = edge_boundary(g, u_set)
                internal = sum(
                    mult for a, b, mult in g.edges if a in u_set and b in u_set
                )
                # half-edges with one end in U: k|U| = 2*internal + boundary
                assert k * size == 2 * internal + boundary


def test_cheeger_budget_exhaustion():
    with pytest.raises(BudgetExceededError):
        cheeger_profile(named_graph("pappus"), SearchBudget(max_steps=50))


def test_b_u_path5():
    cert = b_u(named_graph("path:5"), Fraction(1, 2))
    assert cert.size == 1
    assert cert.optimal
    assert cert.separator == frozenset({2})


def test_b_u_complete_graphs():
    for n in range(3, 7):
        g = complete_graph(n)
        for j in range(1, n // 2 + 1):
            cert = b_u(g, Fraction(j, n))
            assert cert.size == n - j  # removing fewer leaves a big clique


def test_b_u_matches_brute_force(corpus):
    """Unseeded, and seeded by the previous grid point's separator (as the
    bound report sweeps) or by the valid but poor set of all vertices but
    one: a seed changes where the search starts, never the optimum."""
    for g in [x for x in corpus if x.n <= 9]:
        previous = frozenset()
        for j in range(1, g.n // 2 + 1):
            u = Fraction(j, g.n)
            expected = brute_b_u(g, j)
            for seed in (frozenset(), previous, frozenset(range(1, g.n))):
                cert = b_u(g, u, seed=seed)
                assert cert.optimal
                assert cert.size == expected, (g.edges, j, sorted(seed))
                comps = components(g, cert.separator)
                assert cert.component_sizes == tuple(sorted((len(c) for c in comps), reverse=True))
                assert all(len(c) <= j for c in comps)
            previous = b_u(g, u, seed=previous).separator


def test_b_u_below_proves_the_optimum_or_the_target(corpus):
    """With `below=c` the search finds B_u when B_u < c and otherwise
    proves B_u >= c, keeping a valid incumbent, with or without a seed at
    or above c.  `below=None` is the plain search, step for step."""
    for g in corpus:
        for t in range(1, g.n // 2 + 1):
            u = Fraction(t, g.n)
            exact = brute_b_u(g, t)
            for seed in (frozenset(), frozenset(range(1, g.n))):
                plain, unset = RecordingBudget(), RecordingBudget()
                assert b_u(g, u, unset, seed=seed, below=None) == b_u(g, u, plain, seed=seed)
                assert [m.count for m in unset.meters] == [m.count for m in plain.meters]
                for c in range(1, g.n + 1):
                    cert = b_u(g, u, seed=seed, below=c)
                    assert all(len(x) <= t for x in components(g, cert.separator))
                    if exact < c:
                        assert cert.optimal and cert.size == exact
                    else:
                        assert cert.lower_bound == c <= exact <= cert.size
                        assert cert.optimal == (cert.size == c)


def test_b_u_floor_returns_the_certificate_of_the_whole_search(corpus):
    """A floor at the exact B_u changes no certificate, with or without a
    seed or a target, and adds no step.  A floor at or above the target
    refutes it with no step: the certificate has `lower_bound` = `below`,
    as the whole search gives."""
    for g in corpus:
        for t in range(1, g.n // 2 + 1):
            u = Fraction(t, g.n)
            exact = b_u(g, u).size  # optimal, as the brute-force test above checks
            for seed in (frozenset(), frozenset(range(1, g.n))):
                for below in (None, 1, exact - 1, exact, exact + 1):
                    if below is not None and below < 1:
                        continue
                    whole, floored = RecordingBudget(), RecordingBudget()
                    cert = b_u(g, u, whole, seed=seed, below=below)
                    assert b_u(g, u, floored, seed=seed, below=below, floor=exact) == cert
                    assert floored.meters[0].count <= whole.meters[0].count
                    if below is not None and below <= exact:
                        assert cert.lower_bound == below
                        assert floored.meters[0].count == 0


def test_b_u_certificate_components_verified(corpus):
    for g in corpus[:20]:
        j = max(1, g.n // 3)
        cert = b_u(g, Fraction(j, g.n))
        comps = components(g, cert.separator)
        assert all(len(c) <= cert.max_component for c in comps)
        assert cert.component_sizes == tuple(sorted((len(c) for c in comps), reverse=True))


def test_b_u_rejects_invalid_seed(pappus):
    u = Fraction(9, 18)
    valid = b_u(pappus, u).separator
    with pytest.raises(ValueError, match="component larger"):
        b_u(pappus, u, seed=frozenset({0}))
    with pytest.raises(ValueError, match="component larger"):
        b_u(pappus, u, seed=valid - {min(valid)})
    with pytest.raises(ValueError, match="out of range"):
        b_u(pappus, u, seed=valid | {18})


def test_b_u_pappus_half_within_step_guard(pappus):
    """Work-count guard: exclusion branching proves u=1/2 on Pappus in
    about 4,100 steps; the search that re-ticked duplicate removed sets
    needed 18,691."""
    cert = b_u(pappus, Fraction(9, 18), SearchBudget(max_steps=5000))
    assert cert.optimal


def test_b_u_monotone_decreasing_in_u(pappus):
    b6 = b_u(pappus, Fraction(6, 18))
    b9 = b_u(pappus, Fraction(9, 18))
    assert b6.size >= b9.size


def test_b_u_rejects_bad_u():
    g = named_graph("cycle:6")
    with pytest.raises(ValueError):
        b_u(g, Fraction(2, 3))
    with pytest.raises(ValueError):
        b_u(g, Fraction(1, 12))  # u*n < 1
    with pytest.raises(ValueError, match="below"):
        b_u(g, Fraction(1, 2), below=0)


def test_b_u_budget_returns_bracket(pappus):
    cert = b_u(pappus, Fraction(9, 18), SearchBudget(max_steps=3))
    assert not cert.optimal
    parent, subtree = [0] * 19, [0] * 19
    root_packing = _packing(pappus._masks, (1 << 18) - 1, 9, 19, parent, subtree)[0]
    assert cert.lower_bound == min(root_packing, cert.size)
    comps = components(pappus, cert.separator)
    assert all(len(c) <= 9 for c in comps)


def test_violation_agrees_with_components(corpus, pappus):
    """The early-stopping walk that decides the separator search's last
    level, and finds the branch subset where no packing can prune, against
    `components`: it names a subset exactly when some component of the free
    vertices is larger than t, and the subset is the packing's witness, t+1
    connected vertices of the first such component."""
    rng = random.Random(41)
    for g in corpus + [pappus]:
        parent, subtree = [0] * (g.n + 1), [0] * (g.n + 1)
        for _ in range(6):
            free = rng.getrandbits(g.n)
            comps = components(g, frozenset(v for v in range(g.n) if not free >> v & 1))
            for t in range(1, g.n + 1):
                witness = _violation(g._masks, free, t)
                large = [c for c in comps if len(c) > t]
                assert witness == _packing(g._masks, free, t, g.n + 1, parent, subtree)[1]
                if not large:
                    assert witness is None
                    continue
                assert len(witness) == t + 1 and set(witness) <= large[0]
                assert len(components(g, frozenset(range(g.n)) - set(witness))) == 1
