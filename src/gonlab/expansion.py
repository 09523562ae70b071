"""Edge expansion: exact Cheeger grids and minimum separators.

All ratios are exact `Fraction`s.  The u-grid is {j/n : 1 <= j <= n//2}:
both the size-restricted Cheeger constant and the separator invariant are
step functions that only change at multiples of 1/n, so the grid is exact
with finite work.

The exact Cheeger scan enumerates only subsets that are connected in the
induced subgraph: a disconnected subset splits as U1 | U2 with
|bd U| / |U| >= min of the parts' ratios (mediant inequality), so some
connected part of no larger size does at least as well.  The scan also
skips every subtree whose subsets can neither tie nor set a new running
minimum of the least boundary per size, which is all the profile reads.
Seed subsets, such as the sweep cuts of the Fiedler vector that the
bound report passes, make that skip fire sooner and change nothing else.
The all-subsets route is kept in the test suite as the independent oracle
for both cuts.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from fractions import Fraction

from gonlab.budget import DEFAULT_BUDGET, BudgetExceededError, SearchBudget
from gonlab.graph import Multigraph, _component_masks, _mask_tuple


@dataclass(frozen=True)
class CheegerPoint:
    """One grid entry: h_u at u = j/n with a witness subset achieving it."""

    j: int
    u: Fraction
    value: Fraction
    witness: frozenset[int]


@dataclass(frozen=True)
class CheegerProfile:
    """The exact map u -> h_u(G) over the grid, with witnesses, of the
    graph `graph` it was computed on; built only by `cheeger_profile`."""

    graph: Multigraph = field(repr=False)
    points: tuple[CheegerPoint, ...]

    @property
    def n(self) -> int:
        return self.graph.n

    @property
    def h(self) -> Fraction:
        """The plain Cheeger constant h(G) = h at u = 1/2."""
        return self.points[-1].value


@dataclass(frozen=True)
class SeparatorCertificate:
    """A vertex set whose removal leaves only components of size <= u*n."""

    u: Fraction
    max_component: int
    separator: frozenset[int]
    size: int
    component_sizes: tuple[int, ...]
    optimal: bool
    lower_bound: int


def edge_boundary(g: Multigraph, s) -> int:
    """Total multiplicity of edges with exactly one endpoint in s."""
    s = frozenset(s)
    for v in s:
        if not (0 <= v < g.n):
            raise ValueError(f"vertex {v} out of range")
    return sum(mult for u, v, mult in g.edges if (u in s) != (v in s))


def _scan_connected_subsets(g: Multigraph, max_size: int, budget: SearchBudget, seeds=()):
    """(least, masks): per size j <= max_size, a boundary size and the mask
    of a j-subset attaining it.  Index 0 is unused.  At every size
    that sets a new running minimum of least[j] / j (strictly below every
    smaller size's ratio), least[j] is the least boundary of a connected
    j-subset and masks[j] the lexicographically least subset attaining it;
    at the other sizes least[j] may stay above the least over all
    j-subsets (or at the sentinel m + 1), which `cheeger_profile` never
    reads.

    Anchored enumeration: for each anchor vertex (the subset minimum), grow
    using only larger vertices, branching on include/exclude of one
    extension candidate at a time; `avail` holds the vertices above the
    anchor that are neither in the subset nor excluded.  Boundary sizes are
    maintained incrementally: adding w changes the boundary by val(w) minus
    twice the multiplicity from w into the current subset, a sum of
    popcounts over w's multiplicity layers.  Within one size the least
    boundary is the least ratio, and among equal boundaries the set that
    holds the lowest vertex in which two sets differ has the
    lexicographically smaller sorted tuple.

    The tree is cut where no subset in it can change the profile.  `fixed`
    counts the edges from the subset to vertices neither in it nor in
    `avail` (below the anchor, or excluded); every extension keeps them in
    its boundary.  A subtree rooted at size c is skipped when, at every
    size s >= c, `fixed` exceeds least[s] (no tie either) or reaches
    ceil(s * r) for the running minimum r over the sizes below s (no new
    running minimum).  `reach[c]` is the largest `fixed` that passes,
    refreshed whenever least changes.  A second cut uses the boundary
    itself: adding a vertex w lowers it by at most val(w) <= `top`, the
    maximum valence, so a size-s extension of a size-c subset has boundary
    at least boundary - top * (s - c).  With t(s) = min(least[s],
    ceil(s * r) - 1), the largest boundary that passes both tests at size
    s, `reach_b[c]` is the maximum of t(s) + top * s over s >= c, and a
    subtree whose root has boundary + top * c above it is skipped.  At a
    size that sets a new running minimum, all minimizers are reached: their
    ancestors' `fixed` is at most their boundary, which is below both
    thresholds, and an ancestor's boundary exceeds theirs by at most `top`
    per missing vertex.  Each visited subset ticks the meter once.

    `seeds` are masks of subsets of 1 to `max_size` vertices, connected or
    not, entered before the enumeration as if it had visited them, with
    the same tie-break; `reach` and `reach_b` are then refreshed once.  The
    argument above needs only least[s] >= the least boundary of any
    s-subset, which every seed keeps.  At a size that sets a new running
    minimum every minimizer is connected (a split set is no better than
    its best part, of smaller size), so it is still reached, and a seed
    there that is not one is replaced: values and witnesses are the
    unseeded ones.  A good seed (a sweep cut of the Fiedler vector, say)
    only makes the cuts fire sooner.  At the other sizes a seed may leave
    a disconnected subset in masks[j].  Seeds tick no step.
    """
    adj = g._masks
    layers = g._layers
    val = g._val
    top = g.max_valence
    least = [g.m + 1] * (max_size + 1)  # above any boundary
    masks = [0] * (max_size + 1)
    reach = [g.m + 1] * (max_size + 1)
    reach_b = [g.m + 1 + top * max_size] * (max_size + 1)
    tick = budget.meter("cheeger scan").tick

    for mask in seeds:
        size = mask.bit_count()
        boundary, rest = 0, mask
        while rest:
            bit = rest & -rest
            rest ^= bit
            v = bit.bit_length() - 1
            boundary += val[v] - sum((layer & mask).bit_count() for layer in layers[v])
        if boundary < least[size]:
            least[size], masks[size] = boundary, mask
        elif boundary == least[size] and (d := mask ^ masks[size]) & -d & mask:
            masks[size] = mask

    def refresh():
        num, den = g.m + 1, 1  # the running minimum over the sizes below s
        for s in range(1, max_size + 1):
            # fixed <= least[s] allows a tie, fixed < ceil(s * num / den) a new minimum
            reach[s] = min(least[s], (s * num - 1) // den)
            reach_b[s] = reach[s] + top * s
            if least[s] * den < num * s:
                num, den = least[s], s
        for s in range(max_size - 1, 0, -1):
            if reach[s] < reach[s + 1]:
                reach[s] = reach[s + 1]
            if reach_b[s] < reach_b[s + 1]:
                reach_b[s] = reach_b[s + 1]

    if seeds:
        refresh()

    def rec(mask: int, size: int, boundary: int, ext: int, avail: int, fixed: int):
        tick()
        if boundary < least[size]:
            least[size] = boundary
            masks[size] = mask
            refresh()
        elif boundary == least[size] and (d := mask ^ masks[size]) & -d & mask:
            masks[size] = mask
        if size == max_size:
            return
        size += 1
        while ext and fixed <= reach[size]:  # a child's `fixed` is at least its parent's
            bit = ext & -ext
            ext ^= bit
            avail ^= bit  # w joins this child, then stays out of every later one
            w = bit.bit_length() - 1
            into = out = 0
            for layer in layers[w]:
                into += (layer & mask).bit_count()
                out += (layer & avail).bit_count()
            child_fixed = fixed + val[w] - into - out
            child_boundary = boundary + val[w] - 2 * into
            if child_fixed <= reach[size] and child_boundary + top * size <= reach_b[size]:
                child_ext = ext | adj[w] & avail
                rec(mask | bit, size, child_boundary, child_ext, avail, child_fixed)
            fixed += into  # w is excluded from the later siblings

    for anchor in range(g.n):
        below = (1 << anchor) - 1
        fixed = sum((layer & below).bit_count() for layer in layers[anchor])
        if fixed <= reach[1]:
            above = ~((1 << (anchor + 1)) - 1)
            rec(1 << anchor, 1, val[anchor], adj[anchor] & above, above, fixed)
    return least, masks


def sweep_cuts(g: Multigraph, vector) -> list[frozenset[int]]:
    """The sweep cuts of a vertex ordering: sort the vertices by `vector`
    ascending, and again descending, ties by index, and take every prefix
    of at most n/2 vertices.  Sorted by the Fiedler vector, these are the
    cuts of the spectral proof of the Cheeger inequality, and cheap
    near-minimizers that the exact scan takes as seeds."""
    if len(vector) != g.n:
        raise ValueError(f"vector has {len(vector)} entries for {g.n} vertices")
    half = g.n // 2
    cuts = []
    for key in (vector, [-x for x in vector]):
        order = sorted(range(g.n), key=key.__getitem__)  # stable: ties by index
        cuts.extend(frozenset(order[:size]) for size in range(1, half + 1))
    return cuts


def cheeger_profile(
    g: Multigraph, budget: SearchBudget = DEFAULT_BUDGET, *, seeds=()
) -> CheegerProfile:
    """Exact h_u over the full grid {j/n : 1 <= j <= n//2}.

    The connected-subset scan has no size cap; it raises
    BudgetExceededError when the step or time budget runs out, or when its
    recursion, one level per subset size, reaches the interpreter's
    recursion limit (near n = 2000 by default), since a partial scan
    bounds nothing.  `seeds`, vertex sets of 1 to n//2 vertices each
    (ValueError otherwise), start the scan from their boundaries: they can
    shrink its tree, never change the profile or its witnesses.  The bound
    report seeds it with the `sweep_cuts` of the Fiedler vector.  Ratios
    are compared by integer cross-multiplication, and each point's value
    and witness are built once per new running minimum.
    """
    if not g.is_connected():
        raise ValueError("cheeger profile requires a connected graph")
    if g.n < 2:
        raise ValueError("cheeger profile needs at least 2 vertices")
    half = g.n // 2
    seed_masks = []
    for seed in map(frozenset, seeds):
        if not 1 <= len(seed) <= half or not all(0 <= v < g.n for v in seed):
            raise ValueError(f"a seed must be a set of 1 to {half} of the {g.n} vertices")
        seed_masks.append(sum(1 << v for v in seed))
    # exact wherever the running minimum improves, size 1 included
    try:
        least, masks = _scan_connected_subsets(g, half, budget, seed_masks)
    except RecursionError:
        raise BudgetExceededError(f"cheeger scan reached the recursion limit at n={g.n}") from None
    points = []
    for j in range(1, half + 1):
        if j == 1 or least[j] * den < num * j:  # a new running minimum num/den
            num, den = least[j], j
            value, witness = Fraction(num, den), frozenset(_mask_tuple(masks[j]))
        points.append(CheegerPoint(j=j, u=Fraction(j, g.n), value=value, witness=witness))
    return CheegerProfile(graph=g, points=tuple(points))


def _packing(
    adj: tuple[int, ...], free: int, t: int, room: int, parent: list[int], subtree: list[int]
):
    """(count, witness) for the components of the free vertices.

    Components are walked by BFS in order of their smallest vertex, the
    root, with neighbours in ascending order.  `count` vertex-disjoint
    connected (t+1)-subsets are packed greedily bottom-up along the BFS
    spanning trees; every valid separator must hit each of them with a
    distinct vertex.  Counting stops as soon as `count` reaches `room`.
    `witness` is the first t+1 BFS vertices of the first component larger
    than t (BFS-tree prefixes are connected), or None when no component
    is; it is complete whenever the returned count is below `room`.
    `parent` and `subtree` are scratch lists of length n + 1.
    """
    count = 0
    witness = None
    while free:
        bit = free & -free
        free ^= bit
        root = bit.bit_length() - 1
        parent[root] = -1  # the spare last slot of `subtree` takes the root's total
        subtree[root] = 1
        order = [root]
        append = order.append
        for x in order:  # appending while iterating walks the queue
            new = adj[x] & free
            free ^= new
            while new:
                bit = new & -new
                new ^= bit
                w = bit.bit_length() - 1
                parent[w] = x
                subtree[w] = 1
                append(w)
        if len(order) <= t:
            continue
        if witness is None:
            witness = order[: t + 1]
        for v in reversed(order):  # children before parents
            if subtree[v] > t:
                count += 1
                if count >= room:
                    return count, witness
            else:
                subtree[parent[v]] += subtree[v]
    return count, witness


def _violation(adj: tuple[int, ...], free: int, t: int) -> list[int] | None:
    """The first t+1 vertices, in the BFS order of `_packing`, of the first
    component of the free vertices larger than t, or None when no component
    is.  The walk stops as soon as it has them."""
    while free.bit_count() > t:
        bit = free & -free
        free ^= bit
        order = [bit.bit_length() - 1]
        append = order.append
        for x in order:
            new = adj[x] & free
            free ^= new
            while new:
                bit = new & -new
                new ^= bit
                append(bit.bit_length() - 1)
            if len(order) > t:
                return order[: t + 1]
    return None


def _greedy_separator(
    adj: tuple[int, ...], layers: tuple[tuple[int, ...], ...], free: int, t: int
) -> int:
    """Mask of a valid separator: while the largest component of the free
    vertices (among equals, the one holding the smallest vertex) has more
    than t vertices, remove its vertex with the most edges inside it,
    lowest index first."""
    removed = 0
    while True:
        # `max` keeps the first of equal sizes, the one holding the smallest vertex
        target = max(_component_masks(adj, free), key=int.bit_count, default=0)
        if target.bit_count() <= t:
            return removed
        pick, most = 0, -1
        rest = target
        while rest:
            bit = rest & -rest
            rest ^= bit
            inside = 0
            for layer in layers[bit.bit_length() - 1]:
                inside += (layer & target).bit_count()
            if inside > most:
                pick, most = bit, inside
        removed |= pick
        free ^= pick


class _FloorReached(Exception):
    """Ends a separator search whose incumbent has reached the floor."""


def b_u(
    g: Multigraph,
    u: Fraction,
    budget: SearchBudget = DEFAULT_BUDGET,
    seed: frozenset[int] = frozenset(),
    below: int | None = None,
    *,
    floor: int = 0,
) -> SeparatorCertificate:
    """Minimum-size vertex set whose removal leaves only components of size
    <= u*n, by branch and bound on violating connected subsets.

    Branching: any valid separator must contain a vertex of every connected
    (t+1)-subset it misses, so one such subset, the witness, is located and
    its vertices w_1, w_2, ... (valence descending, then index) are tried in
    turn.  Branch i removes w_i and keeps w_1 ... w_{i-1}: they may not be
    removed anywhere below it.  This exclusion branching visits every
    removed set at most once and loses no separator: a valid separator
    S containing the removed set hits the witness, and the first witness
    vertex in S names the one branch whose subtree holds S.  A witness whose
    vertices are all kept therefore ends its node.  Pruning combines the
    incumbent with a packing lower bound from vertex-disjoint violating
    subsets, which holds whatever is kept.  Where the packing cannot prune,
    it is skipped: at the last level (one removal below the incumbent) a
    node becomes the incumbent or is pruned, and an early-stopping walk
    (`_violation`) decides which by looking for one component larger than
    t; where too few free vertices are left for a pruning packing, the same
    walk finds the witness.  Such a node ticks once and decides as the
    packing would, so the search tree is the one the packing alone gives.

    The incumbent starts as the greedy separator, or as `seed` when that is
    strictly smaller (with a target, as `seed` whenever one is given; see
    below).  A seed must be a valid separator (ValueError
    otherwise); the empty seed means none.  A separator for a smaller u
    stays valid for a larger one, so a vertex cover (u = 1/n) can seed the
    search at any u.  When the step or time budget runs out, or the
    recursion, one level per removed vertex, reaches the interpreter's
    recursion limit, the incumbent is returned with optimal=False and the
    root packing bound as `lower_bound`.

    `below` sets a target: the search looks only for separators smaller
    than `below`, as if the incumbent had that size.  If it finds one, it
    runs on to the optimum as usual.  If it finishes without one, B_u is at
    least `below`: the incumbent is returned with `lower_bound` = `below`,
    and optimal only when its size equals `below`.  With a target, the
    greedy separator is built only when the seed is empty: a smaller
    greedy separator could only start the search lower, and the search
    finds every separator below the seed and the target anyway.  With
    `below` None the search is unchanged.

    `floor` is a lower bound on B_u that the caller has proven, 0 when
    there is none.  The search starts only when the smaller of `below` and
    the incumbent's size is above the floor; otherwise the floor already
    refutes the target or proves the incumbent optimal.  A separator that
    the search finds at the floor is optimal, so the search stops there.
    The incumbent changes only on a strict improvement, so either way the
    certificate is the one the whole search returns.  The step meter is
    named "separator search u=<u>", so the searches of one report can be
    told apart.
    """
    u = Fraction(u)
    if not (0 < u <= Fraction(1, 2)):
        raise ValueError("u must lie in (0, 1/2]")
    t = (u.numerator * g.n) // u.denominator
    if t < 1:
        raise ValueError(f"u={u} allows no vertices per component (u*n < 1)")
    if below is not None and below < 1:
        raise ValueError("below must be at least 1")

    adj = g._masks
    full = (1 << g.n) - 1
    parent = [0] * (g.n + 1)
    subtree = [0] * (g.n + 1)
    if not all(0 <= v < g.n for v in seed):
        raise ValueError("seed vertex out of range")
    seed_mask = sum(1 << v for v in seed)
    if seed and _violation(adj, full ^ seed_mask, t) is not None:
        raise ValueError(f"seed leaves a component larger than {t}")
    if seed and below is not None:
        incumbent = seed_mask
    else:
        incumbent = _greedy_separator(adj, g._layers, full, t)
        if seed and seed_mask.bit_count() < incumbent.bit_count():
            incumbent = seed_mask
    best = incumbent.bit_count()
    if below is not None:
        best = min(best, below)
    rank = [0] * g.n  # branch order: valence descending, then index
    for i, v in enumerate(sorted(range(g.n), key=lambda v: (-g.val(v), v))):
        rank[v] = i
    tick = budget.meter(f"separator search u={u}").tick

    def dfs(mask: int, size: int, kept: int):
        nonlocal incumbent, best
        tick()
        room = best - size
        if room <= 0:  # a sibling may have lowered `best` to this size
            return
        free = full ^ mask
        if room > 1 and free.bit_count() >= room * (t + 1):
            count, witness = _packing(adj, free, t, room, parent, subtree)
            if count >= room:
                return
        else:  # `room` disjoint (t+1)-subsets do not fit, or one already prunes
            witness = _violation(adj, free, t)
            if witness is not None and room == 1:
                return
        if witness is None:
            incumbent, best = mask, size  # strictly smaller: room > 0
            if size <= floor:
                raise _FloorReached
            return
        for w in sorted(witness, key=rank.__getitem__):
            bit = 1 << w
            if not kept & bit:
                dfs(mask | bit, size + 1, kept)
                kept |= bit

    stopped = False
    try:
        if best > floor:
            dfs(0, 0, 0)
    except _FloorReached:
        pass
    except (BudgetExceededError, RecursionError):
        stopped = True
    if stopped:
        root_lb = _packing(adj, full, t, g.n + 1, parent, subtree)[0]  # room above any count
        lower_bound = min(root_lb, incumbent.bit_count())
        optimal = False
    else:
        lower_bound = best  # the optimum, or `below` when no separator lies below it
        optimal = lower_bound == incumbent.bit_count()

    separator = frozenset(_mask_tuple(incumbent))
    sizes = tuple(sorted(map(int.bit_count, _component_masks(adj, full ^ incumbent)), reverse=True))
    assert all(s <= t for s in sizes)
    return SeparatorCertificate(
        u=u,
        max_component=t,
        separator=separator,
        size=len(separator),
        component_sizes=sizes,
        optimal=optimal,
        lower_bound=lower_bound,
    )

