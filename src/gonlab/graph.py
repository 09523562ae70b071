"""Immutable multigraphs, Laplacians, basic invariants and edge-list I/O.

Vertices are dense integer indices ``0..n-1``.  Parallel edges are stored as
multiplicities; self-loops are rejected (they are invisible to chip-firing
and would make the burning semantics ambiguous).  Instances are immutable
and safe to share across worker processes.

Every traversal runs on one bitmask walk, `_bfs_layers`: connectivity,
bipartiteness, the distance layers of deficit repair and of the rank
tests' vertex order, and the component walk `_component_masks`, which
gives `components`, the greedy separator's components and the component
sizes of a separator certificate.  Two walks of the separator search,
`expansion._packing` and `expansion._violation`, keep their own
vertex-at-a-time queues, because they need the order inside a layer: the
branching witness is the first t+1 vertices of that queue, `_packing`
grows its BFS spanning trees along it, and `_violation` stops mid-layer
once it holds t+1 vertices.
"""

from __future__ import annotations

import functools
import heapq
import re
from dataclasses import dataclass, field


class GraphParseError(ValueError):
    """Malformed edge-list input; carries the 1-based offending line number."""

    def __init__(self, message: str, line_no: int | None = None):
        self.line_no = line_no
        if line_no is not None:
            message = f"line {line_no}: {message}"
        super().__init__(message)


@dataclass(frozen=True)
class Multigraph:
    """Undirected multigraph with edge multiplicities and no self-loops.

    `edges` is the canonical form: sorted tuple of ``(u, v, mult)`` with
    ``u < v`` and ``mult >= 1``.  Equality and hashing use only `n` and
    `edges`; adjacency structures are derived caches.  For the bitmask
    engines, `_masks[v]` is the int bitmask of the neighbours of v and
    `_layers[v][i]` the bitmask of those joined to v by more than i
    parallel edges: the multiplicity from v into a set S is the sum of the
    popcounts of layer & S, and a simple graph has one layer, `_masks[v]`.

    Invariants that several stages read (bipartiteness, the greedy
    independent set, the valence bound on alpha) are cached properties,
    computed on first use and kept with the instance: like the derived
    fields, they are not fields, so they stay out of equality, hashing and
    the repr, and two equal graphs stay equal whichever has filled them.
    """

    n: int
    edges: tuple[tuple[int, int, int], ...]
    _adj: tuple[tuple[tuple[int, int], ...], ...] = field(
        init=False, repr=False, compare=False
    )
    _val: tuple[int, ...] = field(init=False, repr=False, compare=False)
    _m: int = field(init=False, repr=False, compare=False)
    _masks: tuple[int, ...] = field(init=False, repr=False, compare=False)
    _layers: tuple[tuple[int, ...], ...] = field(init=False, repr=False, compare=False)
    _connected: bool = field(init=False, repr=False, compare=False)

    def __post_init__(self):
        if self.n < 1:
            raise ValueError("vertex count must be positive")
        adj: list[list[tuple[int, int]]] = [[] for _ in range(self.n)]
        val = [0] * self.n
        masks = [0] * self.n
        for u, v, mult in self.edges:
            if not (0 <= u < v < self.n):
                raise ValueError(f"edge ({u},{v}) out of range for n={self.n}")
            if mult < 1:
                raise ValueError(f"edge ({u},{v}) has multiplicity {mult}")
            adj[u].append((v, mult))
            adj[v].append((u, mult))
            val[u] += mult
            val[v] += mult
            masks[u] |= 1 << v
            masks[v] |= 1 << u
        layers = tuple(
            (mask,)  # all edges single: the commonest case, with no per-edge walk
            if val[v] == len(a)
            else tuple(
                sum(1 << x for x, mult in a if mult > i)
                for i in range(max(mult for _, mult in a))
            )
            for v, (a, mask) in enumerate(zip(adj, masks))
        )
        full = (1 << self.n) - 1
        object.__setattr__(self, "_adj", tuple(tuple(a) for a in adj))
        object.__setattr__(self, "_val", tuple(val))
        object.__setattr__(self, "_m", sum(val) // 2)
        object.__setattr__(self, "_masks", tuple(masks))
        object.__setattr__(self, "_layers", layers)
        object.__setattr__(self, "_connected", sum(_bfs_layers(masks, 0, full)) == full)

    @classmethod
    def from_edges(cls, n: int, edge_pairs) -> "Multigraph":
        """Build from an iterable of (u, v) pairs; repeats accumulate multiplicity."""
        mult: dict[tuple[int, int], int] = {}
        for u, v in edge_pairs:
            if u == v:
                raise ValueError(f"self-loop at vertex {u} is not allowed")
            a, b = (u, v) if u < v else (v, u)
            mult[(a, b)] = mult.get((a, b), 0) + 1
        return cls(n, tuple(sorted((u, v, k) for (u, v), k in mult.items())))

    @property
    def m(self) -> int:
        """Total edge count, with multiplicity."""
        return self._m

    def val(self, v: int) -> int:
        return self._val[v]

    @property
    def max_valence(self) -> int:
        return max(self._val)

    def eps(self, u: int, v: int) -> int:
        """Edge multiplicity between two distinct vertices."""
        if u == v:
            return 0
        for w, mult in self._adj[u]:
            if w == v:
                return mult
        return 0

    def neighbors(self, v: int) -> tuple[tuple[int, int], ...]:
        """Pairs ``(w, multiplicity)`` for every neighbor of v."""
        return self._adj[v]

    def regularity(self) -> int | None:
        """The common valence k if the graph is k-regular, else None."""
        k = self._val[0]
        return k if all(d == k for d in self._val) else None

    def is_connected(self) -> bool:
        return self._connected

    @functools.cached_property
    def _bipartite(self) -> bool:
        """Whether the vertices 2-colour with every edge between the colours.

        Every edge joins two vertices of one BFS layer or of adjacent ones.
        An edge inside a layer closes an odd cycle through the root; with
        none, colouring the layers alternately is proper.
        """
        masks = self._masks
        rest = (1 << self.n) - 1
        while rest:
            for layer in _bfs_layers(masks, (rest & -rest).bit_length() - 1, rest):
                rest ^= layer
                for x in _mask_tuple(layer):
                    if masks[x] & layer:
                        return False
        return True

    @functools.cached_property
    def _greedy_independent(self) -> frozenset[int]:
        """Deterministic min-valence greedy independent set.

        Each round takes the alive vertex with the least multiplicity into
        the alive set, lowest index first, and drops it and its neighbours.
        The inflows only fall, so a heap with lazily discarded stale entries
        finds each round's vertex in O(log n).
        """
        inflow = list(self._val)
        heap = [(d, v) for v, d in enumerate(inflow)]
        heapq.heapify(heap)
        alive = [True] * self.n
        chosen = []
        while heap:
            d, v = heapq.heappop(heap)
            if not alive[v] or d != inflow[v]:
                continue
            chosen.append(v)
            dropped = [v, *(w for w, _ in self._adj[v] if alive[w])]
            for w in dropped:
                alive[w] = False
            for w in dropped:
                for x, mult in self._adj[w]:
                    if alive[x]:
                        inflow[x] -= mult
                        heapq.heappush(heap, (inflow[x], x))
        return frozenset(chosen)

    @functools.cached_property
    def _alpha_cap(self) -> int:
        """An upper bound on alpha from the valences alone, with no search.

        An independent set I of a loopless multigraph has its valences sum
        to e(I, V - I) <= m, with equality only when V - I is independent
        too, that is on a bipartite graph.  So alpha is at most the number
        of smallest valences whose sum fits in m, or in m - 1 on a
        non-bipartite graph.  On a k-regular graph that is n/2, and below
        n/2 unless the graph is bipartite.
        """
        room = self._m if self._bipartite else self._m - 1
        count = 0
        for d in sorted(self._val):
            room -= d
            if room < 0:
                break
            count += 1
        return count

    def canonical_hash(self) -> str:
        """Stable hex digest of the canonical edge list (for experiment records)."""
        import hashlib

        text = f"{self.n} {self.m};" + ",".join(
            f"{u}-{v}x{mult}" for u, v, mult in self.edges
        )
        return hashlib.sha256(text.encode()).hexdigest()[:16]

    def to_edge_list_text(self) -> str:
        """Serialize in the edge-list file format (multiplicity as repeated lines)."""
        lines = [f"{self.n} {self.m}"]
        for u, v, mult in self.edges:
            lines.extend([f"{u} {v}"] * mult)
        return "\n".join(lines) + "\n"


def load_graph(text: str) -> Multigraph:
    """Parse the edge-list format: header ``n m``, then exactly m lines ``u v``.

    ``#``-prefixed lines and blank lines are ignored.  Repeated ``u v`` lines
    accumulate multiplicity.  Raises GraphParseError with the offending line
    number on malformed input, out-of-range endpoints or self-loops.
    """
    header: tuple[int, int] | None = None
    pairs: list[tuple[int, int]] = []
    for line_no, raw in enumerate(text.splitlines(), start=1):
        line = raw.strip()
        if not line or line.startswith("#"):
            continue
        parts = line.split()
        if header is None:
            if len(parts) != 2:
                raise GraphParseError("expected header 'n m'", line_no)
            try:
                n, m = int(parts[0]), int(parts[1])
            except ValueError:
                raise GraphParseError("non-integer header", line_no) from None
            if n < 1 or m < 0:
                raise GraphParseError(f"bad header n={n} m={m}", line_no)
            header = (n, m)
            continue
        if len(parts) != 2:
            raise GraphParseError("expected edge 'u v'", line_no)
        try:
            u, v = int(parts[0]), int(parts[1])
        except ValueError:
            raise GraphParseError("non-integer endpoint", line_no) from None
        if not (0 <= u < header[0] and 0 <= v < header[0]):
            raise GraphParseError(f"endpoint out of range in edge {u} {v}", line_no)
        if u == v:
            raise GraphParseError(f"self-loop at vertex {u}", line_no)
        pairs.append((u, v))
    if header is None:
        raise GraphParseError("empty input", None)
    if len(pairs) != header[1]:
        raise GraphParseError(
            f"header declares {header[1]} edges but {len(pairs)} edge lines found", None
        )
    return Multigraph.from_edges(header[0], pairs)


def _pappus_edges() -> list[tuple[int, int]]:
    # Three rings of six: middle 0-5, outer 6-11, inner 12-17.  Inner-ring
    # diameters, three spokes per middle vertex, outer 6-cycle.
    edges = [(12, 15), (13, 16), (14, 17)]
    for w, x, y, z in [
        (0, 6, 13, 17),
        (1, 7, 14, 12),
        (2, 8, 15, 13),
        (3, 9, 16, 14),
        (4, 10, 17, 15),
        (5, 11, 12, 16),
    ]:
        edges += [(w, x), (w, y), (w, z)]
    edges += [(6, 7), (7, 8), (8, 9), (9, 10), (10, 11), (11, 6)]
    return edges


PAPPUS_MIDDLE_RING = frozenset(range(0, 6))
PAPPUS_OUTER_RING = frozenset(range(6, 12))
PAPPUS_INNER_RING = frozenset(range(12, 18))


def named_graph(name: str) -> Multigraph:
    """Builtin registry: ``pappus``, ``k4``, ``cycle:<n>``, ``path:<n>``."""
    if name == "pappus":
        return Multigraph.from_edges(18, _pappus_edges())
    if name == "k4":
        return Multigraph.from_edges(4, [(u, v) for u in range(4) for v in range(u + 1, 4)])
    m = re.fullmatch(r"cycle:(\d+)", name)
    if m:
        n = int(m.group(1))
        if n < 2:
            raise ValueError("cycle:<n> needs n >= 2")
        return Multigraph.from_edges(n, [(i, (i + 1) % n) for i in range(n)])
    m = re.fullmatch(r"path:(\d+)", name)
    if m:
        n = int(m.group(1))
        if n < 1:
            raise ValueError("path:<n> needs n >= 1")
        return Multigraph.from_edges(n, [(i, i + 1) for i in range(n - 1)])
    raise KeyError(f"unknown named graph {name!r}")


def laplacian(g: Multigraph):
    """n x n integer Laplacian with -val(v) on the diagonal and eps(u,v) off it.

    Note the sign convention: the diagonal is negative, so -L is positive
    semidefinite.  Rows sum to zero.
    """
    import numpy as np

    mat = np.zeros((g.n, g.n), dtype=np.int64)
    for u, v, mult in g.edges:
        mat[u, v] = mult
        mat[v, u] = mult
    for v in range(g.n):
        mat[v, v] = -g.val(v)
    return mat


def _bfs_layers(masks: tuple[int, ...] | list[int], root: int, free: int) -> list[int]:
    """Breadth-first layers from `root` through the vertices of `free`, as
    bitmasks: layer 0 is the root alone, and layer t the vertices of `free`
    whose shortest path from the root inside `free` has t edges.

    Every traversal of the graph layer runs on this one walk; their OR is
    the root's component in `free` plus the root.
    """
    frontier = 1 << root
    free &= ~frontier
    layers = []
    while frontier:
        layers.append(frontier)
        reach = 0
        while frontier:
            bit = frontier & -frontier
            frontier ^= bit
            reach |= masks[bit.bit_length() - 1]
        frontier = reach & free
        free ^= frontier
    return layers


def components(g: Multigraph, excluded: frozenset[int] | set[int] = frozenset()) -> list[frozenset[int]]:
    """Connected components of the subgraph induced on V minus `excluded`.

    Returned in deterministic order, by smallest contained vertex index.
    Empty list when every vertex is excluded.
    """
    excluded = frozenset(excluded)
    for v in excluded:
        if not (0 <= v < g.n):
            raise ValueError(f"excluded vertex {v} out of range")
    rest = (1 << g.n) - 1 - sum(1 << v for v in excluded)
    return [frozenset(_mask_tuple(comp)) for comp in _component_masks(g._masks, rest)]


def _component_masks(masks: tuple[int, ...] | list[int], free: int):
    """Bitmasks of the components induced on the vertices of `free`, in
    order of their smallest vertex, where each walk starts."""
    while free:
        comp = sum(_bfs_layers(masks, (free & -free).bit_length() - 1, free))
        free ^= comp
        yield comp


def _mask_tuple(mask: int) -> tuple[int, ...]:
    """The set bits of `mask`, ascending."""
    out = []
    while mask:
        b = mask & -mask
        out.append(b.bit_length() - 1)
        mask ^= b
    return tuple(out)


def is_bipartite(g: Multigraph) -> bool:
    """Whether the vertices 2-colour with every edge between the colours
    (computed once per graph)."""
    return g._bipartite


def genus(g: Multigraph) -> int:
    """First Betti number m - n + 1 of a connected multigraph."""
    if not g.is_connected():
        raise ValueError("genus is defined here for connected graphs only")
    return g.m - g.n + 1
