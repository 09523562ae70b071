import numpy as np
import pytest

from conftest import complete_graph
from gonlab.bounds import full_report
from gonlab.gonality import greedy_independent_set, independence_cap
from gonlab.graph import (
    GraphParseError,
    Multigraph,
    PAPPUS_INNER_RING,
    PAPPUS_MIDDLE_RING,
    PAPPUS_OUTER_RING,
    components,
    genus,
    is_bipartite,
    laplacian,
    load_graph,
    named_graph,
)
from gonlab.reduction import _vertex_order
from oracles import edge_bipartite, edge_components, edge_distances


def test_load_single_edge():
    g = load_graph("2 1\n0 1")
    assert g.n == 2
    assert g.eps(0, 1) == 1
    assert g.m == 1


def test_load_multiplicity_accumulates():
    g = load_graph("3 4\n0 1\n0 1\n1 2\n1 2")
    assert g.eps(0, 1) == 2
    assert g.eps(1, 2) == 2
    assert g.val(1) == 4


def test_load_comments_and_blank_lines():
    g = load_graph("# header comment\n\n3 2\n0 1\n# middle\n1 2\n")
    assert g.m == 2


@pytest.mark.parametrize(
    "text,line",
    [
        ("2 1\n0 0", 2),  # self-loop
        ("2 1\n0 5", 2),  # out of range
        ("2 1\nx y", 2),  # non-integer
        ("nope", 1),  # bad header
    ],
)
def test_load_errors_carry_line_numbers(text, line):
    with pytest.raises(GraphParseError) as exc:
        load_graph(text)
    assert exc.value.line_no == line


def test_load_edge_count_mismatch():
    with pytest.raises(GraphParseError):
        load_graph("3 2\n0 1")


def test_pappus_shape(pappus):
    assert pappus.n == 18
    assert pappus.m == 27
    assert pappus.regularity() == 3
    assert genus(pappus) == 10


def test_named_registry():
    assert named_graph("k4").m == 6
    assert named_graph("cycle:5").regularity() == 2
    assert named_graph("path:4").m == 3
    with pytest.raises(KeyError):
        named_graph("petersen")


def test_laplacian_k2():
    g = named_graph("path:2")
    assert laplacian(g).tolist() == [[-1, 1], [1, -1]]


def test_laplacian_triangle():
    mat = laplacian(named_graph("cycle:3"))
    assert mat.tolist() == [[-2, 1, 1], [1, -2, 1], [1, 1, -2]]


def test_laplacian_rows_sum_zero_and_symmetric(pappus, corpus):
    for g in [pappus] + corpus[:20]:
        mat = laplacian(g)
        assert np.all(mat == mat.T)
        assert np.all(mat.sum(axis=1) == 0)
        assert all(mat[v, v] == -g.val(v) for v in range(g.n))


def test_pappus_laplacian_diagonal(pappus):
    assert all(laplacian(pappus)[v, v] == -3 for v in range(18))


def test_genus_tree_and_regular():
    assert genus(named_graph("path:6")) == 0
    # 3-regular on n vertices has genus n/2 + 1
    g = named_graph("k4")
    assert genus(g) == g.n // 2 + 1


def test_genus_rejects_disconnected():
    g = Multigraph.from_edges(4, [(0, 1), (2, 3)])
    with pytest.raises(ValueError):
        genus(g)


def test_components_path_split():
    g = named_graph("path:3")
    assert components(g, {1}) == [frozenset({0}), frozenset({2})]


def test_components_trivial_cases():
    g = named_graph("cycle:4")
    assert components(g) == [frozenset(range(4))]
    assert components(g, set(range(4))) == []


def test_components_partition_property(corpus):
    for g in corpus[:30]:
        excluded = frozenset(v for v in range(g.n) if v % 3 == 0)
        comps = components(g, excluded)
        union = frozenset().union(*comps) if comps else frozenset()
        assert union == frozenset(range(g.n)) - excluded
        assert sum(len(c) for c in comps) == len(union)
        # no edges between distinct components
        for u, v, _ in g.edges:
            for c in comps:
                assert not ((u in c) != (v in c) and u not in excluded and v not in excluded)


def test_bitmask_tables_and_connectivity_match_the_edges(corpus, pappus):
    """The derived caches the bitmask engines read: neighbour masks,
    multiplicity layers and connectivity, recomputed from the edge list."""
    split = Multigraph.from_edges(5, [(0, 1), (0, 1), (2, 3), (3, 4)])
    for g in corpus + [pappus, split, named_graph("path:1")]:
        for v in range(g.n):
            assert g._masks[v] == sum(1 << w for w, _ in g.neighbors(v))
            for w in range(g.n):
                assert sum(layer >> w & 1 for layer in g._layers[v]) == g.eps(v, w)
        assert g.is_connected() == (len(edge_components(g)) == 1)
    assert not split.is_connected()
    assert split._layers[0] == (0b10, 0b10)


def test_pappus_middle_ring_removal(pappus):
    comps = components(pappus, PAPPUS_MIDDLE_RING)
    sizes = sorted(len(c) for c in comps)
    assert sizes == [2, 2, 2, 6]
    assert frozenset(range(6, 12)) in comps  # the outer ring stays whole
    for c in comps:
        assert c <= PAPPUS_OUTER_RING or c <= PAPPUS_INNER_RING


def test_complete_graph_helper():
    k5 = complete_graph(5)
    assert k5.m == 10
    assert k5.regularity() == 4


def test_edge_list_round_trip(pappus):
    again = load_graph(pappus.to_edge_list_text())
    assert again == pappus


def test_cached_invariants_stay_out_of_equality_and_hashing():
    """The bipartite test, the greedy independent set and the alpha cap are
    cached on the instance; a graph that has filled them stays equal to,
    and hashes like, one that has not."""
    filled, fresh = named_graph("pappus"), named_graph("pappus")
    full_report(filled)
    assert {"_bipartite", "_greedy_independent", "_alpha_cap"} <= set(vars(filled))
    assert not {"_bipartite", "_greedy_independent", "_alpha_cap"} & set(vars(fresh))
    assert filled == fresh and hash(filled) == hash(fresh) and repr(filled) == repr(fresh)
    assert len({filled, fresh}) == 1
    assert (is_bipartite(fresh), greedy_independent_set(fresh), independence_cap(fresh)) == (
        filled._bipartite,
        filled._greedy_independent,
        filled._alpha_cap,
    )


def test_graph_walk_matches_the_edge_list_oracle(corpus, pappus):
    """Components (with and without exclusions), connectivity,
    bipartiteness and the rank tests' vertex order, all from the one
    bitmask walk, against union-find, 2-colouring and distance sweeps over
    the edge list."""
    odd_parts = Multigraph.from_edges(
        10, [(0, 1), (0, 1), (1, 2), (2, 3), (3, 0), (4, 5), (4, 5), (5, 6), (6, 4), (7, 8)]
    )  # a 4-cycle and a triangle, each with a double edge, an edge and vertex 9 alone
    even_parts = Multigraph.from_edges(5, [(0, 1), (0, 1), (2, 3), (3, 4)])
    named = [named_graph(name) for name in ("path:200", "cycle:200", "cycle:201")]
    graphs = corpus + [pappus, odd_parts, even_parts] + named
    rng = np.random.default_rng(23)
    for g in graphs:
        comps = edge_components(g)
        assert components(g) == comps
        assert g.is_connected() == (len(comps) == 1)
        assert is_bipartite(g) == edge_bipartite(g)
        for excluded in (
            frozenset(v for v in range(g.n) if v % 3 == 0),
            frozenset(int(v) for v in np.flatnonzero(rng.random(g.n) < 0.3)),
        ):
            assert components(g, excluded) == edge_components(g, excluded)
        if g.is_connected():
            dist = edge_distances(g, 0)
            assert _vertex_order(g) == sorted(range(1, g.n), key=lambda w: (-dist[w], w))
    assert [is_bipartite(g) for g in named] == [True, True, False]
    assert not is_bipartite(odd_parts) and is_bipartite(even_parts)
    assert [len(c) for c in components(odd_parts)] == [4, 3, 2, 1]
