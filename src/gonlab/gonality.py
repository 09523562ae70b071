"""Exact gonality certificates and the genus and independence upper bounds.

The search ascends through divisor degrees, exhaustively refuting positive
rank below the answer.  A degree level holds a positive-rank divisor iff
it holds a 0-reduced one with a chip on vertex 0 (the 0-reduced form of a
positive-rank divisor is one), so only those candidates are generated, in
ascending colex order, by Dhar's burning algorithm.  The search never
needs to pass the smaller of the genus bound and the independence bound,
because a positive-rank witness of that degree is guaranteed to exist.
Run on its own it starts at degree 1; run as the bound report's last stage
it searches only inside the report's bracket, from its certified lower
bound up (see `exact_gonality`).

The independence bound has no search of its own: a minimum vertex cover
is the separator B_u at u = 1/n, so `expansion.b_u` finds it.  An integer
bound on alpha (`independence_cap`) decides first whether a cover search
could beat the genus bound at all; on every non-bipartite cubic graph it
cannot, and no search runs.
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction

from gonlab.budget import DEFAULT_BUDGET, BudgetExceededError, SearchBudget
from gonlab.divisor import Divisor
from gonlab.expansion import b_u
from gonlab.graph import Multigraph, genus
from gonlab.reduction import _positive_rank_obstruction, _reduced_divisors, _vertex_order


@dataclass(frozen=True)
class GonalityCertificate:
    """Exact gonality with its witness: no degree below `value` holds a
    positive-rank divisor.  A search from degree 1 refuted every one of
    them exhaustively; a search run from a bound report's lower end L
    searched degrees L ... value - 1, and degrees below L are ruled out by
    the report's lower-bound stage that set L."""

    value: int
    witness: Divisor


@dataclass(frozen=True)
class GonalityBracket:
    """Best-known range when the search stopped before certifying: every
    degree below `lower` was searched exhaustively or, below the lower end
    of the bracket the search started from, ruled out by a bound."""

    lower: int
    upper: int
    reason: str


def _search_level(g: Multigraph, degree: int, order, tick):
    """Colex-least 0-reduced positive-rank divisor of the given degree with
    a chip on vertex 0, as chips, or None."""
    for chips in _reduced_divisors(g, degree, tick):
        if _positive_rank_obstruction(g, chips, order, tick) is None:
            return chips
    return None


def exact_gonality(
    g: Multigraph,
    budget: SearchBudget = DEFAULT_BUDGET,
    max_degree: int | None = None,
    *,
    bracket: tuple[int, int] | None = None,
) -> GonalityCertificate | GonalityBracket:
    """Smallest degree of a positive-rank divisor, with witness.

    Returns a certificate when the ascending search completes, or a bracket
    when the step cap or deadline of `budget` (one meter for the whole
    search) or the `max_degree` cap stops it first.  The reported witness
    is the colex-least 0-reduced divisor with a chip on vertex 0 at the
    answer degree.

    The genus bound and the complement of a greedy independent set give
    the upper end in linear time, so the whole budget goes to the search.
    The search finds its witness at or below any valid upper bound.

    `bracket`, when given, is (lower, upper) of a bound report: a certified
    lower bound and a valid upper bound.  The search then runs from `lower`
    to `upper` only, as the report's last stage.  Whenever the gonality
    lies in the bracket, the value and the witness are those of the search
    from degree 1, since every degree below the gonality holds no witness.
    """
    if not g.is_connected():
        raise ValueError("gonality search requires a connected graph")
    if max_degree is not None and max_degree < 0:
        raise ValueError("max_degree must not be negative")
    if bracket is None:
        lower = 1
        upper = min(
            genus_upper_bound(g),
            max(1, complement_divisor(g, greedy_independent_set(g)).degree()),
        )
    else:
        lower, upper = bracket
    limit = upper if max_degree is None else min(upper, max_degree)
    order = _vertex_order(g)
    tick = budget.meter("gonality search").tick
    for degree in range(lower, limit + 1):
        try:
            witness_chips = _search_level(g, degree, order, tick)
        except BudgetExceededError as exc:
            return GonalityBracket(degree, upper, f"stopped inside the degree-{degree} level: {exc}")
        if witness_chips is not None:
            return GonalityCertificate(value=degree, witness=Divisor(g, witness_chips))
    # only reachable when max_degree capped the search below the upper bound
    return GonalityBracket(limit + 1, upper, f"search capped at degree {limit}")


def genus_upper_bound(g: Multigraph) -> int:
    """Riemann-Roch upper bound: gon(G) <= genus from genus 2 on, genus + 1 below.

    From genus 2 on, K - E with E effective of degree g - 2 has rank at
    least 1.  Below it the bound is exact: trees have gonality 1, and on
    genus 1 every degree-2 divisor has rank 2 - 1 = 1.
    """
    if not g.is_connected():
        raise ValueError("genus bound requires a connected graph")
    gen = genus(g)
    return gen if gen >= 2 else gen + 1


def greedy_independent_set(g: Multigraph) -> frozenset[int]:
    """Deterministic min-valence greedy; a lower bound witness for alpha.
    Computed once per graph (`Multigraph._greedy_independent`)."""
    return g._greedy_independent


def independence_cap(g: Multigraph) -> int:
    """An upper bound on alpha(G) from the valences alone, with no search:
    at most n/2 on a k-regular graph, and below n/2 unless it is bipartite.
    Computed once per graph (`Multigraph._alpha_cap`)."""
    return g._alpha_cap


def cover_search_pays(g: Multigraph) -> bool:
    """Whether a vertex-cover search could give an independence bound below
    the genus bound: a complement divisor of an independent set I has
    degree at least n - |I| >= n - `independence_cap`."""
    return g.n - independence_cap(g) < genus_upper_bound(g)


def independence_upper_bound(g: Multigraph, budget: SearchBudget = DEFAULT_BUDGET) -> tuple[int, bool]:
    """Upper bound from the complement of an independent set, which carries
    a positive-rank divisor.  Equals n - alpha(G) on simple graphs.

    On multigraphs the complement divisor must be weighted by parallel-edge
    multiplicities (see complement_divisor): with one chip per vertex the
    divisor can fail to have positive rank, and on banana graphs (two
    vertices, m parallel edges, gonality 2) the unweighted value n - alpha
    = 1 is not even a correct bound.

    The set is the complement of a minimum vertex cover, the separator B_u
    at u = 1/n, searched from the greedy set's complement; it stops once it
    finds a cover of n - `independence_cap` vertices, which is minimum.
    This is the only cover search of the library: the bound report's lower
    stages do not run it.  On multigraphs the weights depend on the set, so
    the lighter of its and the greedy set's complement divisors is taken:
    never weaker than the greedy bound.  Where no cover can beat the genus
    bound (`cover_search_pays` is false), no search runs: the greedy set's
    complement divisor is the bound, and the smaller of it and the genus
    bound is the genus bound, as it would be after any search.

    Returns (bound, exact), exact when the cover is certified minimum or no
    cover search was needed; the cover of a stopped search still gives a
    valid bound.  Floored at 1: gonality is at least 1, and on a single
    vertex the complement is empty.
    """
    if g.n == 1:
        return 1, True
    greedy = greedy_independent_set(g)
    if not cover_search_pays(g):
        return max(1, complement_divisor(g, greedy).degree()), True
    everything = frozenset(range(g.n))
    floor = g.n - independence_cap(g)  # B_{1/n} = n - alpha
    cover = b_u(g, Fraction(1, g.n), budget, seed=everything - greedy, floor=floor)
    bound = min(complement_divisor(g, s).degree() for s in (everything - cover.separator, greedy))
    return max(1, bound), cover.optimal


def complement_divisor(g: Multigraph, independent: frozenset[int]) -> Divisor:
    """A positive-rank divisor supported on the complement of an independent set.

    Each vertex outside the set gets max(1, heaviest edge bundle into the
    set) chips: firing everything except one independent vertex v then
    leaves w with chips(w) - eps(w, v) >= 0 and puts val(v) chips on v, so
    every vertex is reachable.  On simple graphs this is one chip per
    non-independent vertex, of total degree n - alpha.
    """
    chips = []
    for w in range(g.n):
        if w in independent:
            chips.append(0)
        else:
            heaviest = max((mult for x, mult in g.neighbors(w) if x in independent), default=0)
            chips.append(max(1, heaviest))
    return Divisor(g, tuple(chips))
