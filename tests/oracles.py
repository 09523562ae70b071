"""Independent brute-force oracles for the test suite.

Everything here recomputes quantities from first definitions, avoiding the
production code paths it is used to check: linear equivalence through
Smith-normal-form lattice membership (not reduced forms), rank through
exhaustive enumeration of equivalent effective divisors (not burning),
reducedness through a burning loop written from the definition (not
`gonlab.reduction`),
expansion constants through all-subsets scans (not connected-only
pruning), separators through subsets-by-increasing-size, the
algebraic connectivity through exact definiteness tests (not eigensolvers),
and the spectral bound's ceiling through the squared paper form (not the
conjugate form `gonlab.spectral` evaluates).
Only small graphs are in scope; nothing here needs to be fast.
"""

from __future__ import annotations

import itertools
from fractions import Fraction

from gonlab.graph import Multigraph, components, laplacian


def smith_with_left(mat: list[list[int]]):
    """Smith normal form D = U*M*V over the integers; returns (diag(D), U).

    Only the left transform is tracked: membership of b in the column
    lattice of M is equivalent to solvability of D z = U b, i.e. to the
    divisibility of (U b)_i by D_ii (with zero diagonal forcing zero).
    """
    a = [row[:] for row in mat]
    nrows, ncols = len(a), len(a[0])
    left = [[1 if i == j else 0 for j in range(nrows)] for i in range(nrows)]

    def add_row(i, j, c):
        a[i] = [x + c * y for x, y in zip(a[i], a[j])]
        left[i] = [x + c * y for x, y in zip(left[i], left[j])]

    def swap_rows(i, j):
        a[i], a[j] = a[j], a[i]
        left[i], left[j] = left[j], left[i]

    def add_col(i, j, c):
        for row in a:
            row[i] += c * row[j]

    def swap_cols(i, j):
        for row in a:
            row[i], row[j] = row[j], row[i]

    t = 0
    while t < min(nrows, ncols):
        piv = None
        for i in range(t, nrows):
            for j in range(t, ncols):
                if a[i][j] != 0 and (piv is None or abs(a[i][j]) < abs(a[piv[0]][piv[1]])):
                    piv = (i, j)
        if piv is None:
            break
        swap_rows(t, piv[0])
        swap_cols(t, piv[1])
        dirty = True
        while dirty:
            dirty = False
            for i in range(t + 1, nrows):
                if a[i][t] != 0:
                    q = a[i][t] // a[t][t]
                    add_row(i, t, -q)
                    if a[i][t] != 0:
                        swap_rows(t, i)
                        dirty = True
            for j in range(t + 1, ncols):
                if a[t][j] != 0:
                    q = a[t][j] // a[t][t]
                    add_col(j, t, -q)
                    if a[t][j] != 0:
                        swap_cols(t, j)
                        dirty = True
        t += 1
    return [a[i][i] if i < ncols else 0 for i in range(nrows)], left


class LatticeOracle:
    """Linear equivalence via the Laplacian's integer column lattice."""

    def __init__(self, g: Multigraph):
        self.n = g.n
        self.diag, self.left = smith_with_left(laplacian(g).tolist())

    def member(self, b) -> bool:
        y = [sum(self.left[i][j] * b[j] for j in range(self.n)) for i in range(self.n)]
        for yi, di in zip(y, self.diag):
            if di == 0:
                if yi != 0:
                    return False
            elif yi % di != 0:
                return False
        return True

    def equivalent(self, c1, c2) -> bool:
        return self.member([x - y for x, y in zip(c1, c2)])


def all_effective(n: int, degree: int):
    """Every chip tuple with non-negative entries summing to `degree`."""
    for multi in itertools.combinations_with_replacement(range(n), degree):
        chips = [0] * n
        for v in multi:
            chips[v] += 1
        yield tuple(chips)


def brute_positive_rank(g: Multigraph, chips, oracle: LatticeOracle | None = None) -> bool:
    """Positive rank by definition: for every vertex some equivalent
    effective divisor holds a chip there."""
    oracle = oracle or LatticeOracle(g)
    degree = sum(chips)
    if degree < 0:
        return False
    covered = [False] * g.n
    for e in all_effective(g.n, degree):
        if oracle.equivalent(e, chips):
            for v in range(g.n):
                if e[v] > 0:
                    covered[v] = True
    return all(covered)


def brute_rank_at_least(g: Multigraph, chips, r: int, oracle: LatticeOracle | None = None) -> bool:
    """Rank >= r by definition: subtracting any effective degree-r divisor
    leaves a class containing an effective divisor."""
    oracle = oracle or LatticeOracle(g)
    degree = sum(chips)
    if degree < r:
        return False
    for e in all_effective(g.n, r):
        diff = [c - x for c, x in zip(chips, e)]
        if not any(oracle.equivalent(f, diff) for f in all_effective(g.n, degree - r)):
            return False
    return True


def brute_gonality(g: Multigraph) -> int:
    """Smallest degree of a positive-rank divisor, by full enumeration."""
    oracle = LatticeOracle(g)
    d = 1
    while True:
        for chips in all_effective(g.n, d):
            if brute_positive_rank(g, chips, oracle):
                return d
        d += 1


def burns_from(g: Multigraph, chips, v: int) -> bool:
    """Dhar's burning by definition: a fire starts at v, and a vertex
    catches once its edges into the burnt set outnumber its chips.  True
    when every vertex burns."""
    burnt = {v}
    changed = True
    while changed:
        changed = False
        for w in range(g.n):
            if w in burnt:
                continue
            if sum(m for x, m in g.neighbors(w) if x in burnt) > chips[w]:
                burnt.add(w)
                changed = True
    return len(burnt) == g.n


def brute_reduced_witness(g: Multigraph, degree: int):
    """The colex-least effective divisor of `degree` with a chip on vertex
    0 that burns completely from 0 and has positive rank by definition, as
    a chip tuple; None if there is none."""
    oracle = LatticeOracle(g)
    for chips in sorted(all_effective(g.n, degree), key=lambda c: c[::-1]):  # colex
        if chips[0] >= 1 and burns_from(g, chips, 0) and brute_positive_rank(g, chips, oracle):
            return chips
    return None


def brute_boundary(g: Multigraph, subset) -> int:
    subset = set(subset)
    total = 0
    for u, v, mult in g.edges:
        if (u in subset) != (v in subset):
            total += mult
    return total


def brute_h_u(g: Multigraph, j: int) -> Fraction:
    """h at u = j/n over ALL nonempty subsets of size <= j (no pruning)."""
    best = None
    for size in range(1, j + 1):
        for subset in itertools.combinations(range(g.n), size):
            ratio = Fraction(brute_boundary(g, subset), size)
            if best is None or ratio < best:
                best = ratio
    return best


def brute_cheeger_witness(g: Multigraph, j: int) -> frozenset[int]:
    """The witness the exact profile must report at u = j/n.

    Per size s <= j: among all connected s-subsets, the least boundary,
    then the lexicographically least sorted tuple.  Over sizes: the running
    minimum ratio, replaced only on strict improvement.
    """
    running = None
    for size in range(1, j + 1):
        best = None
        for subset in itertools.combinations(range(g.n), size):  # lexicographic
            if len(components(g, set(range(g.n)) - set(subset))) != 1:
                continue
            boundary = brute_boundary(g, subset)
            if best is None or boundary < best[0]:
                best = (boundary, subset)
        ratio = Fraction(best[0], size)
        if running is None or ratio < running[0]:
            running = (ratio, best[1])
    return frozenset(running[1])


def brute_b_u(g: Multigraph, t: int) -> int:
    """Minimum removal set leaving components of size <= t, by increasing size."""
    for size in range(g.n + 1):
        for subset in itertools.combinations(range(g.n), size):
            comps = components(g, frozenset(subset))
            if all(len(c) <= t for c in comps):
                return size
    raise AssertionError("unreachable")


def separations(g: Multigraph):
    """All (A, B, C) partitions of V with A, B non-empty and no A-B edge."""
    verts = range(g.n)
    for assignment in itertools.product((0, 1, 2), repeat=g.n):
        a = [v for v in verts if assignment[v] == 0]
        b = [v for v in verts if assignment[v] == 1]
        if not a or not b:
            continue
        a_set, b_set = set(a), set(b)
        if any((u in a_set and v in b_set) or (u in b_set and v in a_set) for u, v, _ in g.edges):
            continue
        yield a, b, [v for v in verts if assignment[v] == 2]


def _positive_definite(mat: list[list[int]]) -> bool:
    """Sylvester's criterion on a symmetric integer matrix, exactly.

    Fraction-free Bareiss elimination without pivoting: after step k the
    pivot is the (k+1)-th leading principal minor, and every division is
    exact.
    """
    a = [row[:] for row in mat]
    n = len(a)
    prev = 1
    for k in range(n):
        if a[k][k] <= 0:
            return False
        for i in range(k + 1, n):
            for j in range(k + 1, n):
                a[i][j] = (a[k][k] * a[i][j] - a[i][k] * a[k][j]) // prev
        prev = a[k][k]
    return True


def _shifted_laplacian(g: Multigraph, sigma: Fraction) -> list[list[int]]:
    """den * (A - sigma*I + c*J) with A the positive-semidefinite Laplacian,
    J all ones, c = floor(sigma/n) + 1 > sigma/n and den the denominator of
    the dyadic sigma.  Its eigenvalues are c*n - sigma on the all-ones
    vector and lambda_i - sigma on its complement, so it is positive
    definite exactly when lambda2 > sigma."""
    den = sigma.denominator
    c = sigma.numerator // (den * g.n) + 1
    mat = [[den * c] * g.n for _ in range(g.n)]
    for u, v, mult in g.edges:
        mat[u][v] -= den * mult
        mat[v][u] -= den * mult
    for v in range(g.n):
        mat[v][v] += den * g.val(v) - sigma.numerator
    return mat


def lambda2_in(g: Multigraph, lo: float, hi: float) -> bool:
    """Whether lo <= lambda2 <= hi, strictly above lo when lo > 0.

    lambda2 > lo needs no test for lo <= 0: the Laplacian is positive
    semidefinite.  Float endpoints are dyadic, so both tests are exact.
    """
    lo, hi = Fraction(lo), Fraction(hi)
    above_lo = lo <= 0 or _positive_definite(_shifted_laplacian(g, lo))
    return above_lo and not _positive_definite(_shifted_laplacian(g, hi))


def spectral_ceiling_is(lam: Fraction, d: int, n: int, c: int) -> bool:
    """Whether c - 1 < f(lam) <= c for the paper's form of the bound,
    f(lam) = (n / 2*lam) * (-B + 3*sqrt(A)), A = 9*lam^2 + 14*d*lam + 9*d^2,
    B = 7*lam + 9d, with lam > 0 and c >= 1.

    f(lam) <= t is 3*sqrt(A) <= B + 2*lam*t/n; for t >= 0 the right side is
    positive, so squaring both sides decides it exactly in rationals.
    """
    if lam <= 0 or c < 1:
        raise ValueError("needs lam > 0 and c >= 1")
    a = 9 * lam * lam + 14 * d * lam + 9 * d * d
    b = 7 * lam + 9 * d

    def at_most(t: int) -> bool:
        return 9 * a <= (b + 2 * lam * Fraction(t, n)) ** 2

    return at_most(c) and not at_most(c - 1)
