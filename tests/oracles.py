"""Independent brute-force oracles for the test suite.

Everything here recomputes quantities from first definitions, avoiding the
production code paths it is used to check: linear equivalence through
integral solvability of the reduced Laplacian system (not reduced forms), rank through
exhaustive enumeration of equivalent effective divisors (not burning),
reducedness through a burning loop written from the definition (not
`gonlab.reduction`),
expansion constants through all-subsets scans (not connected-only
pruning), separators through subsets-by-increasing-size, the
independence number through a table over all vertex subsets (not branch
and bound), the greedy independent set by rescanning every alive vertex
each round (not a heap), the
algebraic connectivity through exact definiteness tests (not eigensolvers),
the spectral bound's ceiling through the squared paper form (not the
conjugate form `gonlab.spectral` evaluates), and components,
bipartiteness and BFS distances through union-find, 2-colouring and
frontier sweeps over the edge list (not the bitmask walk of `gonlab.graph`).
One entry is a reference rather than an independent route: the spectral
certificate in `Fraction`s, which the integer arithmetic of
`gonlab.spectral` must match bit for bit.
Only small graphs are in scope; nothing here needs to be fast.
"""

from __future__ import annotations

import itertools
import math
from fractions import Fraction

from gonlab.graph import Multigraph, laplacian


def _inverse(mat: list[list[Fraction]]) -> list[list[Fraction]]:
    """Inverse of a nonsingular rational matrix by Gauss-Jordan elimination."""
    n = len(mat)
    a = [row[:] + [Fraction(int(i == j)) for j in range(n)] for i, row in enumerate(mat)]
    for t in range(n):
        piv = next(i for i in range(t, n) if a[i][t] != 0)
        a[t], a[piv] = a[piv], a[t]
        a[t] = [x / a[t][t] for x in a[t]]
        for i in range(n):
            if i != t and a[i][t] != 0:
                a[i] = [x - a[i][t] * y for x, y in zip(a[i], a[t])]
    return [row[n:] for row in a]


class LatticeOracle:
    """Linear equivalence via the Laplacian's integer column lattice.

    On a connected component C with root r (its least vertex), the columns
    of L_C sum to zero and L_C has kernel spanned by the all-ones vector.
    So b lies in the lattice exactly when b sums to 0 over C and the
    reduced system L' x = b' (row and column r deleted, nonsingular) has
    an integral solution.  With L'^-1 = A / q for an integer matrix A and
    the common denominator q, that is A b' = 0 mod q.
    """

    def __init__(self, g: Multigraph):
        lap = laplacian(g).tolist()
        self.parts = []
        for comp in edge_components(g):
            rest = sorted(comp)[1:]
            inverse = _inverse([[Fraction(lap[i][j]) for j in rest] for i in rest])
            q = math.lcm(*(x.denominator for row in inverse for x in row))
            self.parts.append((comp, rest, [[int(x * q) for x in row] for row in inverse], q))

    def member(self, b) -> bool:
        for comp, rest, scaled, q in self.parts:
            if sum(b[v] for v in comp) != 0:
                return False
            for row in scaled:
                if sum(c * b[v] for c, v in zip(row, rest)) % q:
                    return False
        return True

    def equivalent(self, c1, c2) -> bool:
        return self.member([x - y for x, y in zip(c1, c2)])

    def class_key(self, chips) -> tuple:
        """A key that two divisors share exactly when they are equivalent:
        per component, the degree and A c' mod q, since c1 - c2 is in the
        lattice exactly when both agree."""
        return tuple(
            (
                sum(chips[v] for v in comp),
                *(sum(c * chips[v] for c, v in zip(row, rest)) % q for row in scaled),
            )
            for comp, rest, scaled, q in self.parts
        )


def positive_rank_classes(g: Multigraph, degree: int, oracle: LatticeOracle) -> set[tuple]:
    """The `class_key`s of the degree-`degree` classes of positive rank by
    definition: those whose effective members, together, hold a chip on
    every vertex."""
    covered: dict[tuple, int] = {}
    for e in all_effective(g.n, degree):
        key = oracle.class_key(e)
        covered[key] = covered.get(key, 0) | sum(1 << v for v, c in enumerate(e) if c)
    return {key for key, mask in covered.items() if mask == (1 << g.n) - 1}


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
            if len(edge_components(g, set(range(g.n)) - set(subset))) != 1:
                continue
            boundary = brute_boundary(g, subset)
            if best is None or boundary < best[0]:
                best = (boundary, subset)
        ratio = Fraction(best[0], size)
        if running is None or ratio < running[0]:
            running = (ratio, best[1])
    return frozenset(running[1])


def brute_cheeger_profile(g: Multigraph) -> list[tuple[Fraction, frozenset[int]]]:
    """(h_u, witness) at u = j/n for j = 1 .. n//2, over ALL subsets.

    Per size s: the least boundary of any s-subset, connected or not, and
    the first subset in lexicographic order attaining it.  Over sizes: the
    running minimum ratio, replaced only on strict improvement.  At a size
    that improves it, every minimizer is connected (a split set is no
    better than its best part, of smaller size), so this is the profile
    the connected-subset scan must report.  Boundaries come from edge
    masks, one test per edge and subset.
    """
    edges = [((1 << u) | (1 << v), mult) for u, v, mult in g.edges]
    points = []
    running = None
    for size in range(1, g.n // 2 + 1):
        best = None
        for subset in itertools.combinations(range(g.n), size):  # lexicographic
            s = sum(1 << v for v in subset)
            boundary = sum(mult for pair, mult in edges if s & pair not in (0, pair))
            if best is None or boundary < best[0]:
                best = (boundary, subset)
        ratio = Fraction(best[0], size)
        if running is None or ratio < running[0]:
            running = (ratio, frozenset(best[1]))
        points.append(running)
    return points


def brute_b_u(g: Multigraph, t: int) -> int:
    """Minimum removal set leaving components of size <= t, by increasing size."""
    for size in range(g.n + 1):
        for subset in itertools.combinations(range(g.n), size):
            comps = edge_components(g, frozenset(subset))
            if all(len(c) <= t for c in comps):
                return size
    raise AssertionError("unreachable")


def brute_alpha(g: Multigraph) -> int:
    """Independence number from a table over all vertex subsets S, ordered
    as integers: a maximum independent set of S either avoids the lowest
    vertex v of S or holds v and nothing else of its closed neighbourhood."""
    closed = [1 << v for v in range(g.n)]
    for u, v, _ in g.edges:
        closed[u] |= 1 << v
        closed[v] |= 1 << u
    alpha = [0] * (1 << g.n)
    for s in range(1, 1 << g.n):
        low = s & -s
        alpha[s] = max(alpha[s ^ low], 1 + alpha[s & ~closed[low.bit_length() - 1]])
    return alpha[-1]


def rescan_greedy_independent_set(g: Multigraph) -> frozenset[int]:
    """The min-inflow greedy from its definition: each round rescans every
    alive vertex for the least multiplicity into the alive set, lowest
    index first, takes it and drops it and its neighbours."""
    alive = set(range(g.n))
    chosen = set()
    while alive:
        v = min(alive, key=lambda x: (sum(m for w, m in g.neighbors(x) if w in alive), x))
        chosen.add(v)
        alive -= {v, *(w for w, _ in g.neighbors(v))}
    return frozenset(chosen)


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


def reference_spectral_certificate(g: Multigraph, estimate: float, fiedler) -> dict:
    """The numbers `gonlab.spectral` derives from LAPACK's lambda2 estimate
    and Fiedler vector, recomputed term by term in `Fraction`s as its
    module docstring states them, the 2^-1074 underflow term included:
    `error_bound`, and on a connected graph the bound's `value`, `low`,
    `high` and `ceiling`.  This is a reference for the integer code, not
    an independent proof; `lambda2_in` and `spectral_ceiling_is` are those.
    """
    n = g.n

    def round_up(q: Fraction) -> float:
        f = float(q)
        return f if Fraction(f) >= q else math.nextafter(f, math.inf)

    x = [round(v * 2**40) for v in fiedler]
    total = sum(x)
    y = [n * xi - total for xi in x]
    quadratic_form = sum(mult * (y[u] - y[v]) ** 2 for u, v, mult in g.edges)
    hi = round_up(Fraction(quadratic_form, sum(yi * yi for yi in y)))

    d = max(g.val(v) for v in range(n))
    c = math.floor(estimate / n) + 1
    top = d + c + math.ceil(estimate)
    unit = Fraction(1, 2 ** (52 - top.bit_length()))
    gamma = Fraction(n + 1, 2**53 - n - 1)
    margin = gamma / (1 - gamma) * (2 * g.m + n * c) + Fraction(4 * (2 * n + 4 + top), 2**1074)
    r = math.ceil(margin / unit) * unit
    sigma = math.floor((Fraction(estimate) - max(Fraction(1e-9) / 2, 3 * r)) / unit) * unit
    lo = max(sigma, Fraction(0))
    error_bound = round_up(max(Fraction(estimate) - lo, Fraction(hi) - Fraction(estimate)))
    result = {"lambda2": estimate, "error_bound": error_bound}
    if len(edge_components(g)) != 1:
        return result

    def bracket(lam: Fraction) -> tuple[Fraction, Fraction]:  # 64 bits after the point
        a, b = lam.numerator, lam.denominator
        root = math.isqrt((9 * a * a + 14 * d * a * b + 9 * d * d * b * b) << 128)
        rational = (7 * a + 9 * d * b) << 64
        numerator = (16 * n * a) << 64
        return (
            Fraction(numerator, rational + 3 * (root + 1)),
            Fraction(numerator, rational + 3 * root),
        )

    lam, err = Fraction(estimate), Fraction(error_bound)
    lower = bracket(max(lam - err, Fraction(0)))[0]
    return result | {
        "value": float(bracket(lam)[0]),
        "low": -round_up(-lower),
        "high": round_up(bracket(lam + err)[1]),
        "ceiling": math.ceil(lower) if n >= 3 else 1,
    }


def edge_components(g: Multigraph, excluded=frozenset()) -> list[frozenset[int]]:
    """Components of G minus `excluded` by union-find over the edge list,
    ordered by smallest vertex."""
    parent = list(range(g.n))

    def find(x):
        while parent[x] != x:
            parent[x] = parent[parent[x]]
            x = parent[x]
        return x

    for u, v, _ in g.edges:
        if u not in excluded and v not in excluded:
            parent[find(u)] = find(v)
    groups: dict[int, set[int]] = {}
    for v in range(g.n):
        if v not in excluded:
            groups.setdefault(find(v), set()).add(v)
    return sorted((frozenset(c) for c in groups.values()), key=min)


def edge_bipartite(g: Multigraph) -> bool:
    """2-colour each component from its smallest vertex, sweeping the edge
    list until no colour changes, then look for an edge inside a colour."""
    colour: dict[int, int] = {}
    for comp in edge_components(g):
        colour[min(comp)] = 0
        changed = True
        while changed:
            changed = False
            for u, v, _ in g.edges:
                for a, b in ((u, v), (v, u)):
                    if a in colour and b not in colour:
                        colour[b] = 1 - colour[a]
                        changed = True
    return all(colour[u] != colour[v] for u, v, _ in g.edges)


def edge_distances(g: Multigraph, root: int) -> list[int | None]:
    """Edge count of a shortest path from `root` per vertex, None where
    unreachable: each sweep of the edge list reaches one layer further."""
    dist: list[int | None] = [None] * g.n
    dist[root] = 0
    frontier, t = {root}, 0
    while frontier:
        t += 1
        reached = set()
        for u, v, _ in g.edges:
            for a, b in ((u, v), (v, u)):
                if a in frontier and dist[b] is None:
                    dist[b] = t
                    reached.add(b)
        frontier = reached
    return dist
