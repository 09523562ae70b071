import json
import time
from fractions import Fraction
from pathlib import Path

import pytest

from conftest import RecordingBudget, complete_graph
from gonlab import gonality
from gonlab.budget import SearchBudget
from gonlab.divisor import Divisor
from gonlab.expansion import b_u
from gonlab.gonality import (
    GonalityBracket,
    GonalityCertificate,
    complement_divisor,
    exact_gonality,
    genus_upper_bound,
    greedy_independent_set,
    independence_cap,
    independence_upper_bound,
)
from gonlab.graph import Multigraph, genus, named_graph
from gonlab.reduction import has_positive_rank
from gonlab.randgraph import ConfigModelParams, sample_configuration
from oracles import (
    brute_alpha,
    brute_gonality,
    brute_reduced_witness,
    rescan_greedy_independent_set,
)

GOLDEN_DIR = Path(__file__).parent / "golden"


@pytest.mark.parametrize("name", ["path:3", "path:5", "path:7"])
def test_trees_have_gonality_one(name):
    result = exact_gonality(named_graph(name))
    assert isinstance(result, GonalityCertificate)
    assert result.value == 1


def test_star_gonality_one():
    star = Multigraph.from_edges(6, [(0, v) for v in range(1, 6)])
    assert exact_gonality(star).value == 1


@pytest.mark.parametrize("n", [3, 4, 5, 6, 7])
def test_cycles_have_gonality_two(n):
    result = exact_gonality(named_graph(f"cycle:{n}"))
    assert isinstance(result, GonalityCertificate)
    assert result.value == 2


def test_exact_gonality_matches_brute_force(corpus):
    small = [g for g in corpus if g.n <= 6][:8]
    assert small
    for g in small:
        result = exact_gonality(g)
        assert isinstance(result, GonalityCertificate)
        assert result.value == brute_gonality(g)


def test_certificate_witness_is_valid(corpus):
    for g in corpus[:15]:
        result = exact_gonality(g)
        assert isinstance(result, GonalityCertificate)
        assert result.witness.degree() == result.value
        assert has_positive_rank(result.witness)


def test_corpus_gonality_matches_fixture(corpus):
    """The 200 corpus values, captured from the exhaustive-composition
    search before the candidates were restricted to 0-reduced divisors."""
    expected = json.loads((GOLDEN_DIR / "corpus_gonality.json").read_text())
    assert [exact_gonality(g).value for g in corpus] == expected


def test_witness_is_colex_least_reduced_divisor(corpus):
    small = [g for g in corpus if g.n <= 6]
    assert small
    for g in small:
        result = exact_gonality(g)
        assert result.witness.chips == brute_reduced_witness(g, result.value)


def test_pappus_rank_tests_count(pappus, monkeypatch):
    """Every 0-reduced divisor with a chip on vertex 0 of degree 1 to 5,
    and those of degree 6 up to the witness, is rank-tested once."""
    calls = []
    test = gonality._positive_rank_obstruction

    def counted(*args):
        calls.append(1)
        return test(*args)

    monkeypatch.setattr(gonality, "_positive_rank_obstruction", counted)
    result = exact_gonality(pappus)
    assert (result.value, result.witness.chips) == (6, (6,) + (0,) * 17)
    assert len(calls) == 6947


@pytest.mark.parametrize(
    "seed, steps, value, witness",
    [
        (1, 298, 4, (3, 0, 0, 0, 0, 0, 1, 0, 0, 0, 0, 0)),
        (2, 391, 4, (1, 0, 0, 0, 0, 2, 0, 1, 0, 0, 0, 0)),
        (3, 245, 4, (2, 0, 0, 0, 2, 0, 0, 0, 0, 0, 0, 0)),
        (4, 102, 3, (1, 0, 0, 0, 1, 0, 0, 1, 0, 0, 0, 0)),
        (5, 849, 4, (1, 0, 0, 1, 0, 0, 0, 0, 0, 1, 0, 1)),
        (6, 489, 4, (1, 0, 0, 0, 0, 0, 1, 0, 2, 0, 0, 0)),
        (7, 492, 4, (1, 0, 0, 0, 0, 0, 1, 1, 1, 0, 0, 0)),
        (8, 491, 4, (1, 0, 0, 0, 0, 0, 1, 1, 1, 0, 0, 0)),
    ],
)
def test_gonality_search_steps_are_pinned_cubic12(seed, steps, value, witness):
    """The gonality search's step count on cubic n = 12 samples (five of
    the eight have parallel edges): one step per candidate-generating
    burning pass and one per reduction of a rank test.  A kernel rewrite
    that keeps these counts keeps the search tree and the rank tests."""
    budget = RecordingBudget()
    result = exact_gonality(sample_configuration(ConfigModelParams(k=3, n=12, seed=seed)), budget)
    assert [(m.what, m.count) for m in budget.meters] == [("gonality search", steps)]
    assert (result.value, result.witness.chips) == (value, witness)


def test_gonality_search_steps_are_pinned_pappus(pappus):
    budget = RecordingBudget()
    exact_gonality(pappus, budget)
    assert [(m.what, m.count) for m in budget.meters] == [("gonality search", 14137)]


def test_budget_exhaustion_returns_bracket(pappus):
    result = exact_gonality(pappus, SearchBudget(max_steps=100))
    assert isinstance(result, GonalityBracket)
    assert result.lower >= 1
    assert result.upper == 9


def test_max_degree_cap_returns_bracket():
    g = named_graph("cycle:6")
    result = exact_gonality(g, max_degree=1)
    assert isinstance(result, GonalityBracket)
    assert result.lower == 2


def test_max_degree_cap_of_zero_is_valid_and_negative_is_refused():
    g = named_graph("cycle:6")
    assert exact_gonality(g, max_degree=0) == GonalityBracket(1, 2, "search capped at degree 0")
    with pytest.raises(ValueError, match="must not be negative"):
        exact_gonality(g, max_degree=-5)


def test_genus_upper_bound_values(pappus, corpus):
    """An upper bound on every corpus graph, and exact below genus 2:
    trees have gonality 1 and genus-1 graphs gonality 2."""
    assert genus_upper_bound(pappus) == 10
    assert genus_upper_bound(named_graph("path:5")) == 1
    assert genus_upper_bound(Multigraph.from_edges(2, [(0, 1)] * 4)) == 3
    expected = json.loads((GOLDEN_DIR / "corpus_gonality.json").read_text())
    low_genus = 0
    for g, gon in zip(corpus, expected, strict=True):
        assert genus_upper_bound(g) >= gon
        if genus(g) < 2:
            assert genus_upper_bound(g) == gon
            low_genus += 1
    assert low_genus == 7 + 37  # trees and genus-1 graphs of the corpus


def test_genus_bound_loose_for_cycles():
    """Cycles have genus 1, where the plain Riemann-Roch bound (the genus)
    is one short of the gonality; the genus + 1 branch closes that gap."""
    c4 = named_graph("cycle:4")
    assert genus(c4) == 1
    assert genus_upper_bound(c4) == 2
    assert exact_gonality(c4).value == 2


def test_independence_bound_complete_graph():
    k5 = complete_graph(5)
    assert independence_upper_bound(k5) == (4, True)


def test_independence_bound_pappus(pappus):
    assert independence_upper_bound(pappus) == (9, True)


def test_bipartite_cubic_bound_is_genus_minus_one(pappus):
    # for bipartite 3-regular graphs: n - alpha = genus - 1
    from gonlab.graph import genus

    assert independence_upper_bound(pappus) == (genus(pappus) - 1, True)


def test_greedy_independent_set_is_independent(corpus):
    for g in corpus[:30]:
        s = greedy_independent_set(g)
        assert all(w not in s for v in s for w, _ in g.neighbors(v))


def test_greedy_independent_set_follows_its_tie_rule(corpus, pappus):
    """The heap greedy returns the set of the rescanning definition.  The
    set matters beyond its size: complement_divisor weights depend on it
    on multigraphs, and it seeds the exact search."""
    larger = [
        sample_configuration(ConfigModelParams(k=k, n=n, seed=7))
        for k, n in ((3, 100), (4, 60), (3, 300))
    ]
    for g in corpus + [pappus] + larger:
        assert greedy_independent_set(g) == rescan_greedy_independent_set(g)


def test_stopped_independence_bound_is_no_weaker_than_greedy(corpus, pappus):
    """A cover search stopped at its first step still returns a bound no
    weaker than the greedy set's complement divisor."""
    for g in corpus + [pappus]:
        greedy = complement_divisor(g, greedy_independent_set(g)).degree()
        bound, _ = independence_upper_bound(g, SearchBudget(max_steps=0))
        assert bound <= max(1, greedy)


def _prism(r: int) -> Multigraph:
    """Two r-cycles joined by a perfect matching: cubic, bipartite for even r."""
    rings = [(i, (i + 1) % r) for i in range(r)] + [(r + i, r + (i + 1) % r) for i in range(r)]
    return Multigraph.from_edges(2 * r, rings + [(i, r + i) for i in range(r)])


@pytest.mark.parametrize(
    "g, expected, searched",
    [
        (named_graph("cycle:200"), 100, False),
        (sample_configuration(ConfigModelParams(k=3, n=60, seed=7)), 36, False),
        (_prism(100), 100, True),
        (sample_configuration(ConfigModelParams(k=4, n=60, seed=7)), 39, True),
    ],
    ids=["cycle200", "cubic60", "prism200", "quartic60"],
)
def test_independence_bound_is_certified_within_a_deadline(g, expected, searched):
    """The bound is certified within the deadline.  The prism (bipartite
    cubic) and the quartic graph, whose genus exceeds n, run the cover
    search, whose packing bound proves their optima quickly.  On the cycle
    and the non-bipartite cubic graph no cover can beat the genus bound, so
    the gate certifies the greedy complement with no search (on cubic60 it
    is 36, one above n - alpha)."""
    budget = RecordingBudget.with_seconds(3)
    assert independence_upper_bound(g, budget) == (expected, True)
    assert [m.what for m in budget.meters] == ([f"separator search u=1/{g.n}"] if searched else [])
    if not searched:
        assert expected >= genus_upper_bound(g)


def test_independence_cap_bounds_alpha(corpus, pappus):
    """The valence count bounds the independence number of the all-subsets
    oracle from above, and is tight on bipartite cubic Pappus (alpha 9)."""
    for g in corpus + [pappus]:
        assert brute_alpha(g) <= independence_cap(g)
    assert independence_cap(pappus) == 9


def test_skipped_cover_search_could_not_beat_the_genus_bound(corpus, pappus):
    """Where the gate skips the cover search, the complement divisor of an
    exact minimum vertex cover is no lighter than the genus bound, and the
    independence bound is the greedy one with no search."""
    skipped = 0
    for g in corpus + [pappus]:
        budget = RecordingBudget()
        bound = independence_upper_bound(g, budget)
        if budget.meters:
            continue
        skipped += 1
        cover = b_u(g, Fraction(1, g.n))
        assert cover.optimal and cover.size == g.n - brute_alpha(g)
        complement = complement_divisor(g, frozenset(range(g.n)) - cover.separator)
        assert complement.degree() >= genus_upper_bound(g)
        greedy = complement_divisor(g, greedy_independent_set(g)).degree()
        assert bound == (max(1, greedy), True)
    assert budget.meters  # Pappus, the last graph, opens a cover-search meter
    assert skipped == 87


def test_exact_gonality_deadline_goes_to_the_search():
    """The upper end must not spend the deadline before degree 1: it comes
    from the greedy independent set in linear time, not from the cover
    search, which on a quartic n=100 takes 7 s."""
    start = time.monotonic()
    result = exact_gonality(named_graph("cycle:60"), SearchBudget.with_seconds(3))
    assert time.monotonic() - start < 1
    assert isinstance(result, GonalityCertificate)
    assert result.value == 2


def test_complement_divisor_has_positive_rank(corpus, pappus):
    for g in corpus[:20] + [pappus]:
        cover = b_u(g, Fraction(1, g.n)).separator
        assert has_positive_rank(complement_divisor(g, frozenset(range(g.n)) - cover))


def test_complement_divisor_weighted_for_parallel_edges():
    """With one chip per non-independent vertex the divisor fails positive
    rank on this multigraph (frozen from the lattice oracle); the
    multiplicity-weighted version restores it."""
    g = Multigraph(4, ((0, 2, 1), (0, 3, 2), (1, 2, 2), (1, 3, 1)))
    indep = frozenset({0, 1})
    assert not has_positive_rank(Divisor(g, (0, 0, 1, 1)))
    weighted = complement_divisor(g, indep)
    assert weighted.chips == (0, 0, 2, 2)
    assert has_positive_rank(weighted)
    assert exact_gonality(g).value <= independence_upper_bound(g)[0]


def test_banana_graph_bounds():
    """Two vertices with parallel edges: gonality 2, so the unweighted
    n - alpha = 1 would be wrong; the weighted bound stays valid."""
    banana = Multigraph.from_edges(2, [(0, 1)] * 4)
    assert exact_gonality(banana).value == 2
    assert independence_upper_bound(banana) == (4, True)
    assert genus_upper_bound(banana) == 3


def test_single_vertex_graph():
    g = named_graph("path:1")
    result = exact_gonality(g)
    assert result.value == 1
    assert independence_upper_bound(g) == (1, True)


def test_sandwich_on_certificates(corpus):
    """Certified gonality sits between 1 and the valid upper bounds."""
    for g in corpus[:25]:
        result = exact_gonality(g)
        assert isinstance(result, GonalityCertificate)
        upper = min(genus_upper_bound(g), independence_upper_bound(g)[0])
        assert 1 <= result.value <= upper


def test_disconnected_rejected():
    g = Multigraph.from_edges(4, [(0, 1), (2, 3)])
    with pytest.raises(ValueError):
        exact_gonality(g)
