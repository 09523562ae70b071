"""Exact gonality certificates and the two cheap upper bounds.

The search ascends through divisor degrees, exhaustively refuting positive
rank below the answer.  Candidates are enumerated in ascending colex order
(no per-vertex chip caps: correctness over speed, blowup is handled by the
budget).  The search never needs to pass the smaller of the genus bound
and the independence bound, because a positive-rank witness of that degree
is guaranteed to exist.
"""

from __future__ import annotations

from concurrent.futures import ProcessPoolExecutor
from dataclasses import dataclass

from gonlab.budget import DEFAULT_BUDGET, BudgetExceededError, SearchBudget
from gonlab.compositions import compositions_colex_slice, count_compositions
from gonlab.divisor import Divisor
from gonlab.graph import Multigraph, genus
from gonlab.reduction import _positive_rank_obstruction, has_positive_rank


@dataclass(frozen=True)
class GonalityCertificate:
    """Exact gonality with a verified witness.

    `cleared_degree` is the largest degree at which every effective divisor
    was exhaustively refuted; `exhaustive` asserts cleared_degree == value-1,
    i.e. no smaller-degree positive-rank divisor exists.
    """

    value: int
    witness: Divisor
    exhaustive: bool
    cleared_degree: int


@dataclass(frozen=True)
class GonalityBracket:
    """Best-known range when the search stopped before certifying."""

    lower: int
    upper: int
    cleared_degree: int
    reason: str


def _search_slice(g: Multigraph, degree: int, start: int, stop: int, budget: SearchBudget):
    """First positive-rank candidate in a colex rank window, as (rank, chips).

    Slices are colex-contiguous, so the first hit inside a slice is the
    slice minimum and slices can be searched independently.
    """
    for i, cand in enumerate(compositions_colex_slice(degree, g.n, start, stop)):
        if i % 512 == 0:
            budget.check_deadline("gonality search")
        if _positive_rank_obstruction(g, list(cand)) is None:
            return (start + i, cand)
    return None


def _search_level(g: Multigraph, degree: int, budget: SearchBudget, threads: int):
    """Colex-least positive-rank divisor of the given degree, or None."""
    total = count_compositions(degree, g.n)
    if threads <= 1 or total < 4096:
        hit = _search_slice(g, degree, 0, total, budget)
        return None if hit is None else hit[1]
    cuts = [total * i // threads for i in range(threads + 1)]
    with ProcessPoolExecutor(max_workers=threads) as pool:
        futures = [
            pool.submit(_search_slice, g, degree, cuts[i], cuts[i + 1], budget)
            for i in range(threads)
            if cuts[i] < cuts[i + 1]
        ]
        hits = [f.result() for f in futures]
    hits = [h for h in hits if h is not None]
    if not hits:
        return None
    return min(hits)[1]  # lowest colex rank wins, regardless of finish order


def exact_gonality(
    g: Multigraph,
    budget: SearchBudget = DEFAULT_BUDGET,
    max_degree: int | None = None,
    threads: int = 1,
    upper: int | None = None,
) -> GonalityCertificate | GonalityBracket:
    """Smallest degree of a positive-rank divisor, with witness.

    Returns a certificate when the ascending search completes, or a bracket
    when the candidate budget, time budget or `max_degree` cap stops it
    first.  The reported witness is the colex-least one at the answer
    degree, independent of the worker count.

    `upper` is a precomputed gonality upper bound (a bound report's
    `upper`); when None, the genus and independence bounds are computed
    here.
    """
    if not g.is_connected():
        raise ValueError("gonality search requires a connected graph")
    if upper is None:
        upper = independence_upper_bound(g, budget)
        if genus(g) != 1:
            upper = min(upper, genus_upper_bound(g))
    limit = upper if max_degree is None else min(upper, max_degree)
    tested = 0
    for degree in range(1, limit + 1):
        level_size = count_compositions(degree, g.n)
        if tested + level_size > budget.max_candidates:
            return GonalityBracket(
                lower=degree,
                upper=upper,
                cleared_degree=degree - 1,
                reason=f"degree-{degree} level needs {level_size} candidates, "
                f"{budget.max_candidates - tested} left in budget",
            )
        try:
            witness_chips = _search_level(g, degree, budget, threads)
        except BudgetExceededError as exc:
            return GonalityBracket(
                lower=degree,
                upper=upper,
                cleared_degree=degree - 1,
                reason=f"time budget exhausted inside the degree-{degree} level: {exc}",
            )
        tested += level_size
        if witness_chips is not None:
            witness = Divisor(g, witness_chips)
            if not has_positive_rank(witness):  # emission re-check
                raise AssertionError("search returned an invalid witness")
            return GonalityCertificate(
                value=degree, witness=witness, exhaustive=True, cleared_degree=degree - 1
            )
    # only reachable when max_degree capped the search below the upper bound
    return GonalityBracket(
        lower=limit + 1,
        upper=upper,
        cleared_degree=limit,
        reason=f"search capped at degree {limit}",
    )


def genus_upper_bound(g: Multigraph) -> int:
    """Upper bound gon(G) <= genus, from Riemann-Roch; max(genus, 1) below genus 2.

    For genus 0 (trees) the returned 1 is exact.  For genus 1 the returned
    value is the known-loose case (the true gonality is 2): report
    consumers must not fold it into upper-bound minima.  Use
    `genus_bound_is_loose` to detect it.
    """
    if not g.is_connected():
        raise ValueError("genus bound requires a connected graph")
    return max(genus(g), 1)


def genus_bound_is_loose(g: Multigraph) -> bool:
    return genus(g) == 1


def greedy_independent_set(g: Multigraph) -> frozenset[int]:
    """Deterministic min-valence greedy; a lower bound witness for alpha."""
    alive = set(range(g.n))
    chosen: list[int] = []
    while alive:
        v = min(alive, key=lambda x: (sum(m for w, m in g.neighbors(x) if w in alive), x))
        chosen.append(v)
        alive.discard(v)
        for w, _ in g.neighbors(v):
            alive.discard(w)
    return frozenset(chosen)


def max_independent_set(
    g: Multigraph, budget: SearchBudget = DEFAULT_BUDGET
) -> tuple[frozenset[int], bool]:
    """Branch-and-bound maximum independent set.

    Returns (set, exact).  When the node budget runs out the best set found
    so far is returned with exact=False; it is still independent, so any
    bound derived from it stays valid.
    """
    best = greedy_independent_set(g)
    nodes = 0
    exhausted = False

    def expand(cand: frozenset[int], picked: tuple[int, ...]):
        nonlocal best, nodes, exhausted
        if exhausted:
            return
        nodes += 1
        if nodes > budget.max_nodes:
            exhausted = True
            return
        if len(picked) + len(cand) <= len(best):
            return
        if not cand:
            if len(picked) > len(best):
                best = frozenset(picked)
            return
        v = max(cand, key=lambda x: (sum(1 for w, _ in g.neighbors(x) if w in cand), -x))
        closed = frozenset(w for w, _ in g.neighbors(v)) | {v}
        expand(cand - closed, picked + (v,))
        expand(cand - {v}, picked)

    expand(frozenset(range(g.n)), ())
    return best, not exhausted


def independence_upper_bound(g: Multigraph, budget: SearchBudget = DEFAULT_BUDGET) -> int:
    """Upper bound from the complement of an independent set, which carries
    a positive-rank divisor.  Equals n - alpha(G) on simple graphs.

    On multigraphs the complement divisor must be weighted by parallel-edge
    multiplicities (see complement_divisor): with one chip per vertex the
    divisor can fail to have positive rank, and on banana graphs (two
    vertices, m parallel edges, gonality 2) the unweighted value n - alpha
    = 1 is not even a correct bound.  Degrades to the greedy independent
    set under budget pressure, which keeps the bound valid, just weaker.

    Floored at 1: gonality is at least 1, and on a single vertex the
    complement is empty.
    """
    indep, _ = max_independent_set(g, budget)
    return max(1, complement_divisor(g, indep).degree())


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
