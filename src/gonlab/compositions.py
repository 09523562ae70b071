"""Colexicographic enumeration of effective divisors of a fixed degree.

An effective divisor of degree d on n vertices is a composition of d into n
non-negative parts.  The enumeration order is ascending colex (vectors
compare at the last differing coordinate), so chips pile onto low-index
vertices first: (d,0,...,0) is rank 0.  Rank tests enumerate their
subtrahend divisors in this order; the gonality search generates the
0-reduced subsequence of it directly (`reduction._reduced_divisors`).
"""

from __future__ import annotations

from math import comb


def count_compositions(total: int, parts: int) -> int:
    """Number of length-`parts` non-negative integer vectors summing to `total`."""
    if parts < 1 or total < 0:
        return 0
    return comb(total + parts - 1, parts - 1)


def compositions_colex(total: int, parts: int):
    """Yield all compositions of `total` into `parts` parts in ascending colex.

    The first is (total, 0, ..., 0).  Each next one is its colex successor:
    one chip of the lowest non-empty vertex moves up by one, and that
    vertex's other chips go to vertex 0.
    """
    count = count_compositions(total, parts)
    if not count:
        return
    chips = [total] + [0] * (parts - 1)
    for _ in range(count - 1):
        yield tuple(chips)
        low = 0
        while not chips[low]:
            low += 1
        moved, chips[low] = chips[low], 0
        chips[low + 1] += 1
        chips[0] = moved - 1
    yield tuple(chips)
