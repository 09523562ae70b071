"""Edge expansion: exact Cheeger grids and minimum separators.

All ratios are exact `Fraction`s.  The u-grid is {j/n : 1 <= j <= n//2}:
both the size-restricted Cheeger constant and the separator invariant are
step functions that only change at multiples of 1/n, so the grid is exact
with finite work.

The exact Cheeger scan enumerates only subsets that are connected in the
induced subgraph: a disconnected subset splits as U1 | U2 with
|bd U| / |U| >= min of the parts' ratios (mediant inequality), so some
connected part of no larger size does at least as well.  The all-subsets
route is kept in the test suite as the independent oracle for this pruning.
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction

from gonlab.budget import DEFAULT_BUDGET, BudgetExceededError, SearchBudget
from gonlab.graph import Multigraph, components


@dataclass(frozen=True)
class CheegerPoint:
    """One grid entry: h_u at u = j/n with a witness subset achieving it."""

    j: int
    u: Fraction
    value: Fraction
    witness: frozenset[int]


@dataclass(frozen=True)
class CheegerProfile:
    """The exact map u -> h_u(G) over the grid, with witnesses."""

    n: int
    points: tuple[CheegerPoint, ...]

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


def _adjacency_masks(g: Multigraph) -> list[int]:
    adj = [0] * g.n
    for u, v, _ in g.edges:
        adj[u] |= 1 << v
        adj[v] |= 1 << u
    return adj


def _scan_connected_subsets(g: Multigraph, max_size: int, visit, budget: SearchBudget):
    """Call visit(mask, size, boundary) on every connected subset, once each.

    Anchored enumeration: for each anchor vertex (the subset minimum), grow
    using only larger vertices, branching on include/exclude of one
    extension candidate at a time.  Boundary sizes are maintained
    incrementally: adding w changes the boundary by val(w) minus twice the
    multiplicity from w into the current subset.  That multiplicity is a sum
    of popcounts over layers[w], where layer i holds the neighbours joined
    to w by more than i parallel edges.
    """
    n = g.n
    adj_mask = _adjacency_masks(g)
    layers = [
        [
            sum(1 << x for x, mult in g.neighbors(w) if mult > i)
            for i in range(max((mult for _, mult in g.neighbors(w)), default=0))
        ]
        for w in range(n)
    ]
    tick = budget.meter("cheeger scan").tick

    def rec(mask: int, size: int, boundary: int, ext: int, banned: int):
        tick()
        visit(mask, size, boundary)
        if size == max_size:
            return
        while ext:
            w = (ext & -ext).bit_length() - 1
            ext &= ext - 1
            into = sum((layer & mask).bit_count() for layer in layers[w])
            new_mask = mask | (1 << w)
            new_ext = (ext | (adj_mask[w] & allowed & ~banned)) & ~new_mask
            rec(new_mask, size + 1, boundary + g.val(w) - 2 * into, new_ext, banned)
            banned |= 1 << w  # exclude w from every later branch at this level

    for anchor in range(n):
        allowed = ~((1 << (anchor + 1)) - 1)  # vertices strictly above the anchor
        rec(1 << anchor, 1, g.val(anchor), adj_mask[anchor] & allowed, 0)


def _mask_tuple(mask: int) -> tuple[int, ...]:
    out = []
    while mask:
        b = mask & -mask
        out.append(b.bit_length() - 1)
        mask ^= b
    return tuple(out)


def cheeger_profile(g: Multigraph, budget: SearchBudget = DEFAULT_BUDGET) -> CheegerProfile:
    """Exact h_u over the full grid {j/n : 1 <= j <= n//2}, at any n.

    The connected-subset scan has no size cap; it raises
    BudgetExceededError when the step or time budget runs out, since a
    partial scan bounds nothing.
    """
    if not g.is_connected():
        raise ValueError("cheeger profile requires a connected graph")
    if g.n < 2:
        raise ValueError("cheeger profile needs at least 2 vertices")
    half = g.n // 2
    best: dict[int, tuple[int, int]] = {}

    # Within one size the least boundary is the least ratio, and among
    # equal sizes the set holding the lowest bit of mask ^ cur has the
    # lexicographically smaller sorted tuple.
    def visit(mask, size, boundary):
        cur = best.get(size)
        if cur is None or boundary < cur[0] or (
            boundary == cur[0] and (d := mask ^ cur[1]) & -d & mask
        ):
            best[size] = (boundary, mask)

    _scan_connected_subsets(g, half, visit, budget)

    # a connected graph has connected subsets of every size, so best[j] exists
    points = []
    running: tuple[Fraction, int] | None = None
    for j in range(1, half + 1):
        boundary, mask = best[j]
        if running is None or Fraction(boundary, j) < running[0]:
            running = (Fraction(boundary, j), mask)
        points.append(
            CheegerPoint(
                j=j,
                u=Fraction(j, g.n),
                value=running[0],
                witness=frozenset(_mask_tuple(running[1])),
            )
        )
    return CheegerProfile(n=g.n, points=tuple(points))


def _bfs_components(adj: list[int], free: int, parent: list[int]):
    """Yield the components of the free vertices as BFS orders.

    Components come in order of their smallest vertex, the BFS root, and
    neighbours in ascending order (lowest set bit first), as `g.neighbors`
    lists them.  `parent` receives the discoverer of every non-root vertex.
    """
    while free:
        root = (free & -free).bit_length() - 1
        free ^= 1 << root
        order = [root]
        for x in order:  # appending while iterating walks the queue
            new = adj[x] & free
            free ^= new
            while new:
                w = (new & -new).bit_length() - 1
                new &= new - 1
                parent[w] = x
                order.append(w)
        yield order


def _packing(adj: list[int], free: int, t: int, parent: list[int], subtree: list[int]):
    """(count, witness) for the components of the free vertices.

    `count` vertex-disjoint connected (t+1)-subsets are packed greedily
    bottom-up along BFS spanning trees; every valid separator must hit each
    of them with a distinct vertex.  `witness` is the first t+1 BFS vertices
    of the first component larger than t (BFS-tree prefixes are connected),
    or None when no component is.
    """
    count = 0
    witness = None
    for order in _bfs_components(adj, free, parent):
        if len(order) <= t:
            continue
        if witness is None:
            witness = order[: t + 1]
        for v in order:
            subtree[v] = 1
        for v in order[:0:-1]:  # reverse BFS order: children before parents
            if subtree[v] > t:
                count += 1
                subtree[v] = 0
            subtree[parent[v]] += subtree[v]
        if subtree[order[0]] > t:
            count += 1
    return count, witness


def _greedy_separator(g: Multigraph, adj: list[int], t: int) -> int:
    """Mask of a valid separator: repeatedly remove the vertex with the most
    edges inside the largest component above t."""
    full = (1 << g.n) - 1
    parent = [0] * g.n
    removed = 0
    while True:
        target = max(_bfs_components(adj, full & ~removed, parent), key=len)
        if len(target) <= t:
            return removed
        inside = sum(1 << v for v in target)
        removed |= 1 << max(
            target,
            key=lambda v: (sum(m for x, m in g.neighbors(v) if (inside >> x) & 1), -v),
        )


def b_u(
    g: Multigraph,
    u: Fraction,
    budget: SearchBudget = DEFAULT_BUDGET,
    seed: frozenset[int] = frozenset(),
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
    subsets, which holds whatever is kept.

    The incumbent starts as the greedy separator, or as `seed` when that is
    strictly smaller.  A seed must be a valid separator (ValueError
    otherwise); the empty seed means none.  Since a separator for a smaller
    u stays valid for a larger one, a sweep up the u-grid can pass each
    optimum on as the next seed.  When the step or time budget runs out,
    the incumbent is returned with optimal=False and the root packing bound
    as `lower_bound`.
    """
    u = Fraction(u)
    if not (0 < u <= Fraction(1, 2)):
        raise ValueError("u must lie in (0, 1/2]")
    t = (u.numerator * g.n) // u.denominator
    if t < 1:
        raise ValueError(f"u={u} allows no vertices per component (u*n < 1)")

    adj = _adjacency_masks(g)
    full = (1 << g.n) - 1
    parent = [0] * g.n
    subtree = [0] * g.n
    incumbent = _greedy_separator(g, adj, t)
    if seed:
        if not all(0 <= v < g.n for v in seed):
            raise ValueError("seed vertex out of range")
        seed_mask = sum(1 << v for v in seed)
        if _packing(adj, full & ~seed_mask, t, parent, subtree)[1] is not None:
            raise ValueError(f"seed leaves a component larger than {t}")
        if seed_mask.bit_count() < incumbent.bit_count():
            incumbent = seed_mask
    root_lb = _packing(adj, full, t, parent, subtree)[0]
    tick = budget.meter("separator search").tick

    def dfs(mask: int, kept: int):
        nonlocal incumbent
        tick()
        count, witness = _packing(adj, full & ~mask, t, parent, subtree)
        if mask.bit_count() + count >= incumbent.bit_count():
            return
        if witness is None:
            incumbent = mask  # strictly smaller: the prune above passed
            return
        for w in sorted(witness, key=lambda v: (-g.val(v), v)):
            bit = 1 << w
            if not kept & bit:
                dfs(mask | bit, kept)
                kept |= bit

    try:
        dfs(0, 0)
        optimal = True
    except BudgetExceededError:
        optimal = False

    separator = frozenset(_mask_tuple(incumbent))
    sizes = tuple(sorted((len(c) for c in components(g, separator)), reverse=True))
    assert all(s <= t for s in sizes)
    return SeparatorCertificate(
        u=u,
        max_component=t,
        separator=separator,
        size=len(separator),
        component_sizes=sizes,
        optimal=optimal,
        lower_bound=len(separator) if optimal else min(root_lb, len(separator)),
    )

