"""Divisors (chip configurations) and chip-firing moves.

A divisor assigns an integer chip count to every vertex.  Firing a vertex
sends one chip along each incident edge; firing a set fires each member
once (internal edges cancel).  Two divisors are linearly equivalent when
their difference lies in the integer image of the graph Laplacian; the test
is delegated to the reduced-form engine, which computes the unique
v-reduced representative of each class (the lattice-normal-form route is
the documented alternative and serves as the independent test oracle).
"""

from __future__ import annotations

from dataclasses import dataclass

from gonlab.graph import Multigraph


@dataclass(frozen=True)
class Divisor:
    """Integer chip vector on the vertices of a fixed multigraph."""

    graph: Multigraph
    chips: tuple[int, ...]

    def __post_init__(self):
        if len(self.chips) != self.graph.n:
            raise ValueError(
                f"chip vector has length {len(self.chips)}, graph has {self.graph.n} vertices"
            )

    @classmethod
    def zero(cls, graph: Multigraph) -> "Divisor":
        return cls(graph, (0,) * graph.n)

    @classmethod
    def from_map(cls, graph: Multigraph, amounts: dict[int, int]) -> "Divisor":
        chips = [0] * graph.n
        for v, c in amounts.items():
            if not (0 <= v < graph.n):
                raise ValueError(f"vertex {v} out of range")
            chips[v] = c
        return cls(graph, tuple(chips))

    def __getitem__(self, v: int) -> int:
        return self.chips[v]

    def degree(self) -> int:
        return sum(self.chips)

    def add(self, other: "Divisor") -> "Divisor":
        self._check_same_graph(other)
        return Divisor(self.graph, tuple(a + b for a, b in zip(self.chips, other.chips)))

    def sub(self, other: "Divisor") -> "Divisor":
        self._check_same_graph(other)
        return Divisor(self.graph, tuple(a - b for a, b in zip(self.chips, other.chips)))

    def _check_same_graph(self, other: "Divisor") -> None:
        if self.graph != other.graph:
            raise ValueError("divisors live on different graphs")


def fire_vertex(d: Divisor, v: int) -> Divisor:
    """Fire one vertex: it loses val(v) chips, each neighbor w gains eps(w,v)."""
    return fire_set(d, (v,))


def fire_set(d: Divisor, s) -> Divisor:
    """Fire every vertex of a set once; equals any sequential order of single fires."""
    g = d.graph
    s = frozenset(s)
    for v in s:
        if not (0 <= v < g.n):
            raise ValueError(f"vertex {v} out of range")
    chips = list(d.chips)
    for v in s:
        for w, mult in g.neighbors(v):
            if w not in s:
                chips[v] -= mult
                chips[w] += mult
    return Divisor(g, tuple(chips))


def canonical_divisor(g: Multigraph) -> Divisor:
    """val(v) - 2 chips at every vertex; degree 2*genus - 2 on connected graphs."""
    return Divisor(g, tuple(g.val(v) - 2 for v in range(g.n)))


def is_equivalent(d1: Divisor, d2: Divisor) -> bool:
    """Linear equivalence via equality of 0-reduced canonical forms.

    Degrees must match for equivalence (firing preserves degree), so unequal
    degrees short-circuit to False.
    """
    d1._check_same_graph(d2)
    if d1.degree() != d2.degree():
        return False
    if d1.chips == d2.chips:
        return True
    from gonlab.reduction import v_reduce

    return v_reduce(d1, 0).chips == v_reduce(d2, 0).chips


def parse_divisor(text: str, graph: Multigraph) -> Divisor:
    """Parse the CLI literal syntax ``v:c,v:c,...``; unlisted vertices get 0.

    The empty string is the zero divisor.
    """
    amounts: dict[int, int] = {}
    text = text.strip()
    if not text:
        return Divisor.zero(graph)
    for part in text.split(","):
        part = part.strip()
        try:
            v_str, c_str = part.split(":")
            v, c = int(v_str), int(c_str)
        except ValueError:
            raise ValueError(f"bad divisor term {part!r}; expected 'v:c'") from None
        if not (0 <= v < graph.n):
            raise ValueError(f"vertex {v} out of range for n={graph.n}")
        amounts[v] = amounts.get(v, 0) + c
    return Divisor.from_map(graph, amounts)


def format_divisor(d: Divisor) -> str:
    """Inverse of parse_divisor; zero divisor formats as the empty string."""
    return ",".join(f"{v}:{c}" for v, c in enumerate(d.chips) if c != 0)
