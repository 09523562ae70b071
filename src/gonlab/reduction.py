"""Dhar's burning algorithm, v-reduced forms, and rank tests built on them.

The burning fixed point: a fire started at v spreads to any vertex whose
burnt-edge multiplicity exceeds its chip count.  If everything burns, the
divisor is v-reduced; otherwise the unburnt set can be fired while staying
effective away from v.  Iterating reaches the unique v-reduced
representative of the class.

Termination measure for the reduction loop: every unburnt-set firing moves
at least one chip strictly closer to v, so the chip vector ordered by
decreasing distance from v drops lexicographically in a well-founded
order.  The unburnt set may be fired several times at once when chips
allow; every intermediate state stays effective away from v, and reduced
forms are unique, so batching cannot change the result.

One kernel, `_burn_pass`, runs every burning pass.  It keeps a single
`room` list: a vertex's chips minus its burnt-edge multiplicity, negative
once it has burnt.  The pass stops as soon as the last vertex burns, and
`_fire_unburnt` fires the unburnt set from the room the pass leaves.

One loop, `_reduce`, runs every reduction: it burns and fires until v
holds `need` chips or the form is v-reduced.  `_make_effective_away`
first repairs any deficits away from v; the rank tests of the gonality
search start from effective candidates and skip it.  Stopping early is
sound: every state of the loop is effective away from v and equivalent
to the input, v (always burnt) only gains chips, and the v-reduced form
holds the most chips on v of all such states.  So `v_reduce` runs the
loop to the end, a rank test at v asks for v's first chip, and
`find_rank_obstruction` stops once vertex 0 is out of debt: the state,
and so its class, is then effective.

The gonality search needs only the 0-reduced effective divisors with a
chip on vertex 0: `_reduced_divisors` generates them by burning, and
`_positive_rank_obstruction` tests them at every other vertex.  Both stop
a burning pass early, by one argument.  The burnt set of a pass from s on
chips c is the least set X holding s that is closed: no vertex outside X
has more edges from X than chips (a vertex that burns has more burnt
edges than chips, and so lies in every such X).  Let c burn completely
from s, and run a pass from s' on chips c' that agree with c outside a
set T.  Once that pass has burnt s and all of T, its final burnt set
holds s and is closed for c' at vertices where c' = c, so it is closed
for c and holds everything: the pass burns completely.

* A try of `_reduced_divisors` adds one chip at k to a configuration that
  burns completely from 0 (s = s' = 0, T = {k}), so the pass can stop
  once k burns.
* The first pass of a test at v on a 0-reduced candidate has s = 0,
  s' = v and T = {v}, so it can stop once vertex 0 burns: the candidate
  is then v-reduced as it stands, and with no chip on v it fails.

`has_positive_rank` therefore reduces to the full 0-reduced form before
it tests, so that the test's one precondition holds.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

from gonlab.budget import DEFAULT_BUDGET, SearchBudget
from gonlab.compositions import compositions_colex
from gonlab.divisor import Divisor
from gonlab.graph import Multigraph, _bfs_layers, _mask_tuple


@dataclass(frozen=True)
class BurnResult:
    """Outcome of one burning pass from a source vertex."""

    source: int
    burnt: frozenset[int]
    unburnt: frozenset[int]
    fully_burnt: bool


def _burn_pass(adj, chips, v, stop=-1):
    """One burning fixed point from v on chips effective away from v.

    Returns None once every vertex has burnt, or once vertex `stop` has
    (the caller knows that everything burns from then on), else the `room`
    list: each vertex's chips minus its burnt-edge multiplicity, negative
    exactly on the burnt vertices.  The fixed point is unique, so scan
    order does not matter, and the pass stops at the last vertex to burn.
    """
    room = list(chips)
    room[v] = -1
    left = len(room) - 1  # vertices not yet burnt
    if not left:
        return None
    stack = [v]
    while stack:
        for w, mult in adj[stack.pop()]:
            r = room[w]
            if r >= 0:
                r -= mult
                room[w] = r
                if r < 0:
                    left -= 1
                    if not left or w == stop:
                        return None
                    stack.append(w)
    return room


def _fire_unburnt(adj, chips, room) -> None:
    """Fire the unburnt set of a pass in place, as often as every vertex of
    it allows.

    Per firing an unburnt vertex w sends chips[w] - room[w] chips into the
    burnt side, and room[w] >= 0, so one firing always fits and the state
    stays effective away from the source.  Only unburnt vertices with a
    burnt neighbour move chips.
    """
    border = [w for w, r in enumerate(room) if 0 <= r < chips[w]]
    if not border:
        raise ValueError("graph must be connected for v-reduction")
    times = min(chips[w] // (chips[w] - room[w]) for w in border)
    for w in border:
        chips[w] -= times * (chips[w] - room[w])
        for x, mult in adj[w]:
            if room[x] < 0:
                chips[x] += times * mult


def _make_effective_away(g: Multigraph, chips: list[int], v: int) -> list[int]:
    """Repair all deficits outside v, in place, pushing them onto v.

    Returns `chips`, at once when there are no deficits.  Otherwise staged
    by BFS layer from v, farthest first: a deficit at distance t is cleared
    by firing the radius-(t-1) ball around v enough times (each firing
    sends every layer-t vertex at least one chip along its edges from layer
    t-1).  Firing that ball only crosses the (t-1)/t cut, so later stages
    never disturb layers already repaired.  Each layer is visited once and
    each edge at most twice: O(m) in all.
    """
    if min(chips[:v] + chips[v + 1:], default=0) >= 0:
        return chips
    if not g.is_connected():
        raise ValueError("graph must be connected for v-reduction")
    layers = _bfs_layers(g._masks, v, (1 << g.n) - 1)
    adj = g._adj
    for t in range(len(layers) - 1, 0, -1):
        prev = layers[t - 1]
        gains = []
        times = 0
        for w in _mask_tuple(layers[t]):
            into_prev = 0
            for x, mult in adj[w]:
                if prev >> x & 1:
                    into_prev += mult
            gains.append((w, into_prev))
            if chips[w] < 0:
                times = max(times, (-chips[w] + into_prev - 1) // into_prev)
        if times == 0:
            continue
        for w, into_prev in gains:
            chips[w] += times * into_prev
            for x, mult in adj[w]:
                if prev >> x & 1:
                    chips[x] -= times * mult
    return chips


def _reduce(g: Multigraph, chips: list[int], v: int, need: float = math.inf) -> list[int]:
    """Burn and fire a chip list effective away from v, in place, until v
    holds `need` chips or the list is v-reduced; assumes a connected graph.
    With the default `need` it runs to the v-reduced form.
    """
    adj = g._adj
    while chips[v] < need and (room := _burn_pass(adj, chips, v)) is not None:
        _fire_unburnt(adj, chips, room)
    return chips


def dhar_burn(d: Divisor, v: int) -> BurnResult:
    """Single burning pass from v on a divisor effective away from v."""
    g = d.graph
    if not (0 <= v < g.n):
        raise ValueError(f"vertex {v} out of range")
    if any(c < 0 for i, c in enumerate(d.chips) if i != v):
        raise ValueError("divisor must be effective away from the fire source")
    room = _burn_pass(g._adj, d.chips, v)
    unburnt = frozenset() if room is None else frozenset(i for i, r in enumerate(room) if r >= 0)
    return BurnResult(v, frozenset(range(g.n)) - unburnt, unburnt, not unburnt)


def v_reduce(d: Divisor, v: int) -> Divisor:
    """The unique v-reduced divisor linearly equivalent to d.

    Accepts arbitrary integer divisors: deficits away from v are first
    repaired by staged ball firings, then the burn/fire loop runs to its
    fixed point.  Requires a connected graph.
    """
    g = d.graph
    if not (0 <= v < g.n):
        raise ValueError(f"vertex {v} out of range")
    return Divisor(g, tuple(_reduce(g, _make_effective_away(g, list(d.chips), v), v)))


def _reduced_divisors(g: Multigraph, degree: int, tick=lambda: None):
    """Yield the 0-reduced effective divisors of `degree` with a chip on
    vertex 0, as chip tuples in ascending colex order.

    Their restrictions to V minus {0} are the superstable configurations
    (those that burn completely from 0) of degree below `degree`; vertex 0
    takes the rest.  Superstables are closed downward, so the colex
    successor of c is c with one more chip on the lowest vertex k >= 1
    where that, with every vertex below k emptied, still burns completely.
    Each try is one burning pass and one `tick`; the pass stops once k
    burns (see the module docstring).  Starting from the empty
    configuration this visits exactly the superstables, without recursion.
    """
    if degree < 1:
        return
    adj = g._adj
    chips = [0] * g.n
    spare = degree - 1  # chips not yet placed on V minus {0}
    while True:
        chips[0] = spare + 1
        yield tuple(chips)
        k = 1
        while True:
            if k == g.n:
                return
            if spare:
                chips[k] += 1
                tick()
                if _burn_pass(adj, chips, 0, k) is None:
                    spare -= 1
                    break
                chips[k] -= 1
            spare += chips[k]
            chips[k] = 0
            k += 1


def _vertex_order(g: Multigraph) -> list[int]:
    """Vertices other than 0 of a connected graph by decreasing distance
    from 0, ties by index: the BFS layers from 0 in reverse.

    Candidates of the gonality search hold their chips near vertex 0, so
    positive-rank failures concentrate far from it and checking the
    farthest vertices first makes refutations cheap.  The result of the
    conjunction does not depend on the order.
    """
    layers = _bfs_layers(g._masks, 0, (1 << g.n) - 1)
    return [w for layer in reversed(layers[1:]) for w in _mask_tuple(layer)]


def _positive_rank_obstruction(g: Multigraph, chips, order, tick) -> int | None:
    """First vertex of `order` whose reduced form holds no chip, or None.

    `chips` must be a 0-reduced divisor with a chip on vertex 0 on a
    connected graph, so vertex 0 passes and `order` (from `_vertex_order`)
    lists the others.  Each test at v stops at v's first chip, and its
    first burning pass stops once vertex 0 burns, which the module
    docstring shows is sound.  `tick` is called before each reduction, so
    a budget meter can stop a slow test part way.
    """
    adj = g._adj
    for v in order:
        if chips[v]:
            continue  # v passes: its v-reduced form holds at least chips[v]
        tick()
        room = _burn_pass(adj, chips, v, 0)
        if room is None:  # v-reduced with no chip on v
            return v
        test = list(chips)
        _fire_unburnt(adj, test, room)
        if not _reduce(g, test, v, 1)[v]:
            return v
    return None


def has_positive_rank(d: Divisor) -> bool:
    """True iff the class of d puts a chip on every vertex after reduction.

    Implements the reduced-divisor criterion: d has positive rank iff for
    every vertex v the v-reduced representative has at least one chip at v.
    Divisors of degree below 1 are never of positive rank.  Vertex 0 is
    tested on the full 0-reduced form, which then, with its chip on 0, is
    the candidate that the tests at the other vertices require.
    """
    g = d.graph
    if not g.is_connected():
        raise ValueError("positive rank test requires a connected graph")
    if d.degree() < 1:
        return False
    chips = _reduce(g, _make_effective_away(g, list(d.chips), 0), 0)
    return chips[0] >= 1 and _positive_rank_obstruction(g, chips, _vertex_order(g), lambda: None) is None


def find_rank_obstruction(
    d: Divisor, r: int, budget: SearchBudget = DEFAULT_BUDGET
) -> Divisor | None:
    """An effective degree-r divisor E with d - E not equivalent to effective.

    Returns None when d has rank at least r.  E candidates are enumerated
    in ascending colex order, so the reported witness is deterministic and
    the first failure found is the colex-smallest one.  Raises
    BudgetExceededError when the budget stops the test first.
    """
    if r < 0:
        raise ValueError("rank threshold must be non-negative")
    g = d.graph
    if not g.is_connected():
        raise ValueError("rank test requires a connected graph")
    if d.degree() < r:
        return Divisor(g, (r,) + (0,) * (g.n - 1))
    base = list(d.chips)
    tick = budget.meter("rank test").tick
    for e in compositions_colex(r, g.n):
        tick()
        chips = _make_effective_away(g, [b - c for b, c in zip(base, e)], 0)
        if _reduce(g, chips, 0, 0)[0] < 0:  # effective once vertex 0 is out of debt
            return Divisor(g, e)
    return None


def rank_at_least(d: Divisor, r: int, budget: SearchBudget = DEFAULT_BUDGET) -> bool:
    """True iff subtracting any effective degree-r divisor leaves an effective class."""
    return find_rank_obstruction(d, r, budget) is None
