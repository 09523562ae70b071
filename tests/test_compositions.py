from math import comb

from gonlab.compositions import compositions_colex, compositions_colex_slice, count_compositions


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


def test_slices_concatenate_to_full():
    total = count_compositions(5, 4)
    full = list(compositions_colex(5, 4))
    cuts = [0, 7, 20, 33, total]
    glued = []
    for lo, hi in zip(cuts, cuts[1:]):
        glued.extend(compositions_colex_slice(5, 4, lo, hi))
    assert glued == full


def test_empty_slice():
    assert list(compositions_colex_slice(3, 3, 5, 5)) == []


def _chips(n: int, *vertices: int) -> tuple[int, ...]:
    """One chip on each listed vertex of an n-vertex graph."""
    chips = [0] * n
    for v in vertices:
        chips[v] += 1
    return tuple(chips)


def test_slice_near_the_end_of_long_vectors():
    """Seeking deep into many-vertex levels needs no recursion per vertex.

    Degree 1: rank i is one chip on vertex i.  Degree 2: chips on i <= j,
    in colex order sorted by (j, i), so the last 2n - 1 ranks are the pairs
    with j in {n - 2, n - 1}.
    """
    n = 3000
    window = list(compositions_colex_slice(1, n, n - 5, n + 5))
    assert window == [_chips(n, i) for i in range(n - 5, n)]
    n = 2000
    tail = [_chips(n, i, j) for j in (n - 2, n - 1) for i in range(j + 1)]
    total = count_compositions(2, n)
    assert list(compositions_colex_slice(2, n, total - len(tail), total)) == tail
