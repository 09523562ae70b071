from math import comb

from gonlab.compositions import compositions_colex, count_compositions


def test_counts():
    assert count_compositions(0, 3) == 1
    assert count_compositions(5, 1) == 1
    assert count_compositions(6, 18) == comb(23, 17)


def test_enumeration_complete_and_ordered():
    seen = list(compositions_colex(4, 3))
    assert len(seen) == count_compositions(4, 3)
    assert len(set(seen)) == len(seen)
    assert all(sum(c) == 4 for c in seen)
    assert seen[0] == (4, 0, 0)
    # ascending colex: last differing coordinate increases
    for a, b in zip(seen, seen[1:]):
        j = max(i for i in range(3) if a[i] != b[i])
        assert a[j] < b[j]


def _chips(n: int, *vertices: int) -> tuple[int, ...]:
    """One chip on each listed vertex of an n-vertex graph."""
    chips = [0] * n
    for v in vertices:
        chips[v] += 1
    return tuple(chips)


def test_long_vectors_need_no_recursion():
    """Whole levels on many vertices enumerate without recursion per vertex.

    Degree 1: rank i is one chip on vertex i.  Degree 2: chips on i <= j,
    in colex order sorted by (j, i).
    """
    n = 3000
    expected = (_chips(n, i) for i in range(n))
    for got, want in zip(compositions_colex(1, n), expected, strict=True):
        assert got == want
    n = 300
    expected = (_chips(n, i, j) for j in range(n) for i in range(j + 1))
    for got, want in zip(compositions_colex(2, n), expected, strict=True):
        assert got == want
