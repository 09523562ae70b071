import random

import pytest

from conftest import complete_graph
from gonlab.budget import BudgetExceededError, SearchBudget
from gonlab.compositions import compositions_colex
from gonlab.divisor import Divisor, fire_set, parse_divisor
from gonlab.graph import Multigraph, named_graph
from gonlab.reduction import (
    _positive_rank_obstruction,
    _reduced_divisors,
    _vertex_order,
    dhar_burn,
    find_rank_obstruction,
    has_positive_rank,
    rank_at_least,
    v_reduce,
)
from oracles import (
    LatticeOracle,
    all_effective,
    brute_gonality,
    brute_positive_rank,
    brute_rank_at_least,
    burns_from,
    positive_rank_classes,
)


def test_burn_zero_divisor_fully_burns():
    for name in ("path:4", "cycle:5", "k4"):
        g = named_graph(name)
        result = dhar_burn(Divisor.zero(g), 2)
        assert result.fully_burnt
        assert result.burnt == frozenset(range(g.n))
        assert result.unburnt == frozenset()


def test_burn_path_center_chips():
    g = named_graph("path:3")
    result = dhar_burn(Divisor(g, (0, 2, 0)), 0)
    assert result.burnt == frozenset({0})
    assert result.unburnt == frozenset({1, 2})
    assert not result.fully_burnt


def test_burn_requires_effective_away_from_source():
    g = named_graph("path:3")
    with pytest.raises(ValueError):
        dhar_burn(Divisor(g, (0, -1, 0)), 0)
    # a deficit at the source itself is fine
    dhar_burn(Divisor(g, (-3, 1, 0)), 0)


def test_burn_pappus_inner_vertex(pappus):
    """Middle-ring divisor minus an inner vertex: the fire from that vertex
    stops after its inner-ring neighbor, leaving 16 vertices unburnt."""
    d = parse_divisor("0:1,1:1,2:1,3:1,4:1,5:1", pappus).sub(
        Divisor.from_map(pappus, {12: 1})
    )
    result = dhar_burn(d, 12)
    assert result.burnt == frozenset({12, 15})
    assert len(result.unburnt) == 16


def test_burn_unburnt_set_fires_effectively(corpus):
    """When the fire stalls, firing the unburnt set keeps the divisor
    effective away from the source."""
    rng = random.Random(5)
    for g in corpus[:25]:
        chips = tuple(rng.randint(0, 2) for _ in range(g.n))
        v = rng.randrange(g.n)
        result = dhar_burn(Divisor(g, chips), v)
        if not result.fully_burnt:
            fired = fire_set(Divisor(g, chips), result.unburnt)
            assert all(fired.chips[w] >= 0 for w in range(g.n) if w != v)


def test_v_reduce_k2():
    g = named_graph("path:2")
    assert v_reduce(Divisor(g, (0, 1)), 0).chips == (1, 0)


def test_v_reduce_idempotent(corpus):
    rng = random.Random(13)
    for g in corpus[:25]:
        chips = tuple(rng.randint(-2, 3) for _ in range(g.n))
        v = rng.randrange(g.n)
        once = v_reduce(Divisor(g, chips), v)
        assert v_reduce(once, v) == once


def test_v_reduce_preserves_class_and_degree(corpus):
    rng = random.Random(17)
    for g in corpus[:15]:
        oracle = LatticeOracle(g)
        for _ in range(4):
            chips = tuple(rng.randint(-2, 3) for _ in range(g.n))
            v = rng.randrange(g.n)
            reduced = v_reduce(Divisor(g, chips), v)
            assert reduced.degree() == sum(chips)
            assert oracle.equivalent(chips, reduced.chips)


def test_v_reduce_repairs_deficits(corpus):
    """From a divisor with deficits away from v, the result is effective
    away from v, burns completely from v and stays in the class."""
    rng = random.Random(29)
    for g in corpus[::5]:
        oracle = LatticeOracle(g)
        for _ in range(3):
            v = rng.randrange(g.n)
            chips = [rng.randint(-4, 3) for _ in range(g.n)]
            chips[(v + 1) % g.n] = -rng.randint(1, 4)
            reduced = v_reduce(Divisor(g, tuple(chips)), v).chips
            assert all(c >= 0 for w, c in enumerate(reduced) if w != v)
            assert burns_from(g, reduced, v)
            assert oracle.equivalent(chips, reduced)


def test_reduced_divisors_are_the_reduced_part_of_colex(corpus):
    """The gonality candidates are exactly the compositions with a chip on
    vertex 0 that burn completely from 0, in the same colex order."""
    for g in [g for g in corpus if g.n <= 7]:
        for degree in range(1, 6):
            expected = [
                c for c in compositions_colex(degree, g.n) if c[0] >= 1 and burns_from(g, c, 0)
            ]
            assert list(_reduced_divisors(g, degree)) == expected


def test_v_reduce_is_canonical_form(corpus):
    """d1 ~ d2 exactly when their v-reduced forms coincide, for any fixed v."""
    rng = random.Random(19)
    for g in corpus[:10]:
        oracle = LatticeOracle(g)
        for _ in range(6):
            c1 = tuple(rng.randint(-1, 3) for _ in range(g.n))
            if rng.random() < 0.5:
                d2 = Divisor(g, c1)
                for _ in range(rng.randint(1, 3)):
                    s = frozenset(v for v in range(g.n) if rng.random() < 0.4)
                    d2 = fire_set(d2, s)
                c2 = d2.chips
            else:
                c2 = tuple(rng.randint(-1, 3) for _ in range(g.n))
                c2 = c2[:-1] + (c2[-1] + sum(c1) - sum(c2),)
            same_class = oracle.equivalent(c1, c2)
            for v in (0, g.n - 1):
                r1 = v_reduce(Divisor(g, c1), v)
                r2 = v_reduce(Divisor(g, c2), v)
                assert (r1 == r2) == same_class


def test_v_reduce_pappus_middle_ring(pappus):
    """The middle-ring divisor reduces to hold a chip at any inner vertex."""
    d = parse_divisor("0:1,1:1,2:1,3:1,4:1,5:1", pappus)
    for v in range(12, 18):
        assert v_reduce(d, v)[v] >= 1


def test_v_reduce_disconnected_rejected():
    g = Multigraph.from_edges(4, [(0, 1), (2, 3)])
    with pytest.raises(ValueError):
        v_reduce(Divisor(g, (0, 1, 0, 0)), 0)


def test_positive_rank_negative_degree():
    g = named_graph("cycle:4")
    assert not has_positive_rank(Divisor(g, (-2, 1, 0, 0)))


def test_positive_rank_single_chip_on_trees():
    for name in ("path:3", "path:5", "path:6"):
        g = named_graph(name)
        oracle = LatticeOracle(g)
        for v in range(g.n):
            d = Divisor.from_map(g, {v: 1})
            assert has_positive_rank(d)
            assert brute_positive_rank(g, d.chips, oracle)


def test_positive_rank_matches_oracle_small(corpus):
    rng = random.Random(23)
    small = [g for g in corpus if g.n <= 6][:8]
    for g in small:
        oracle = LatticeOracle(g)
        for _ in range(5):
            chips = tuple(rng.randint(0, 2) for _ in range(g.n))
            assert has_positive_rank(Divisor(g, chips)) == brute_positive_rank(
                g, chips, oracle
            )


def test_rank_test_stops_where_the_full_reduction_decides(corpus):
    """On every gonality candidate up to the gonality, the rank test that
    stops at v's first chip reports the first vertex of `_vertex_order`
    whose full v-reduction holds no chip, and None exactly on the
    candidates of positive rank by definition."""
    small = [g for g in corpus if g.n <= 7]
    assert any(mult > 1 for g in small for _, _, mult in g.edges)
    for g in small:
        oracle = LatticeOracle(g)
        order = _vertex_order(g)
        for degree in range(1, brute_gonality(g) + 1):
            for chips in _reduced_divisors(g, degree):
                d = Divisor(g, chips)
                expected = next((v for v in order if v_reduce(d, v)[v] == 0), None)
                found = _positive_rank_obstruction(g, chips, order, lambda: None)
                assert found == expected
                assert (found is None) == brute_positive_rank(g, chips, oracle)


def test_early_exits_agree_with_the_lattice(corpus):
    """Both early exits are sound on every corpus graph (n <= 10) up to
    degree 4: a try of `_reduced_divisors` that stops once its vertex
    burns still yields exactly the candidates that burn completely from 0,
    and a rank test whose first pass stops once vertex 0 burns refutes
    exactly the candidates of no positive rank by definition."""
    assert max(g.n for g in corpus) == 10
    positive = refuted = 0
    for g in corpus:
        oracle = LatticeOracle(g)
        order = _vertex_order(g)
        for degree in range(1, 5):
            classes = positive_rank_classes(g, degree, oracle)
            candidates = list(_reduced_divisors(g, degree))
            assert candidates == [
                c for c in compositions_colex(degree, g.n) if c[0] >= 1 and burns_from(g, c, 0)
            ]
            for chips in candidates:
                holds = _positive_rank_obstruction(g, chips, order, lambda: None) is None
                assert holds == (oracle.class_key(chips) in classes)
                positive += holds
                refuted += not holds
    assert positive > 100 and refuted > 1000


def test_positive_rank_classes_match_the_definition(corpus):
    """The class-key oracle of the test above against `brute_positive_rank`."""
    for g in [g for g in corpus if g.n <= 5][:10]:
        oracle = LatticeOracle(g)
        for degree in (1, 2, 3):
            classes = positive_rank_classes(g, degree, oracle)
            for chips in all_effective(g.n, degree):
                assert (oracle.class_key(chips) in classes) == brute_positive_rank(g, chips, oracle)


# the 4-cycle 0-2-1-3-0 with edges 0-3 and 1-2 doubled
NOT_REDUCED = Multigraph.from_edges(4, [(0, 2), (0, 3), (0, 3), (1, 2), (1, 2), (1, 3)])


def test_positive_rank_of_effective_divisors_that_are_not_0_reduced(corpus):
    """`has_positive_rank` reduces to the full 0-reduced form, the one
    precondition of the rank test's exit at vertex 0.  On NOT_REDUCED,
    (1, 1, 1, 0) has a chip on 0 but is not 0-reduced.  A fire from vertex
    3 burns 0 without burning everything, yet the 3-reduced form holds a
    chip on 3: an exit at vertex 0 there would report a false obstruction."""
    chips = (1, 1, 1, 0)
    d = Divisor(NOT_REDUCED, chips)
    assert not burns_from(NOT_REDUCED, chips, 0)
    burn = dhar_burn(d, 3)
    assert 0 in burn.burnt and not burn.fully_burnt
    assert v_reduce(d, 3)[3] >= 1
    assert has_positive_rank(d) and brute_positive_rank(NOT_REDUCED, chips)
    checked = 0
    for g in [NOT_REDUCED] + [g for g in corpus if g.n <= 7]:
        oracle = LatticeOracle(g)
        for degree in (2, 3):
            classes = positive_rank_classes(g, degree, oracle)
            for chips in all_effective(g.n, degree):
                if chips[0] >= 1 and not burns_from(g, chips, 0):
                    holds = has_positive_rank(Divisor(g, chips))
                    assert holds == (oracle.class_key(chips) in classes)
                    checked += holds
    assert checked > 100


def test_rank_at_least_zero_is_effectivity():
    g = named_graph("cycle:5")
    assert rank_at_least(Divisor(g, (2, 0, 0, 0, 0)), 0)
    assert rank_at_least(v_reduce(Divisor(g, (-1, 1, 1, 0, 0)), 0), 0)
    assert not rank_at_least(Divisor(g, (-1, 0, 0, 0, 0)), 0)


def test_k3_two_chips_rank():
    g = named_graph("cycle:3")
    d = Divisor(g, (2, 0, 0))
    assert rank_at_least(d, 1)
    assert not rank_at_least(d, 2)
    assert brute_rank_at_least(g, d.chips, 1)
    assert not brute_rank_at_least(g, d.chips, 2)


def test_rank_at_least_matches_oracle(corpus):
    rng = random.Random(29)
    small = [g for g in corpus if g.n <= 5][:5] or [named_graph("cycle:4")]
    for g in small:
        oracle = LatticeOracle(g)
        for _ in range(4):
            chips = tuple(rng.randint(0, 2) for _ in range(g.n))
            for r in (0, 1, 2):
                assert rank_at_least(Divisor(g, chips), r) == brute_rank_at_least(
                    g, chips, r, oracle
                ), (g.edges, chips, r)


def test_positive_rank_iff_rank_at_least_one(corpus):
    rng = random.Random(31)
    for g in corpus[:30]:
        chips = tuple(rng.randint(0, 2) for _ in range(g.n))
        d = Divisor(g, chips)
        assert has_positive_rank(d) == rank_at_least(d, 1)


def test_rank_obstruction_is_reported():
    g = named_graph("cycle:4")
    d = Divisor(g, (1, 0, 0, 0))
    e = find_rank_obstruction(d, 1)
    assert e is not None
    assert e.degree() == 1
    # subtracting the witness leaves a class with no effective member
    assert not rank_at_least(d.sub(e), 0)


def test_rank_budget_cap():
    """K6 has genus 10, so a degree-24 divisor has rank 24 - 10 = 14: the
    test must try all 252 subtrahends of degree 5, and 10 steps stop it."""
    g = complete_graph(6)
    d = Divisor(g, (24,) + (0,) * 5)
    assert rank_at_least(d, 5)
    with pytest.raises(BudgetExceededError):
        rank_at_least(d, 5, SearchBudget(max_steps=10))
