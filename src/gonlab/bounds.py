"""Assembled gonality bounds: the expansion grid, the regular-graph
transform, the spectral bound, the tree fact, the two upper bounds, the
final bracket and, as an optional last stage, the gonality search inside
that bracket.

Two lower-bound families are evaluated over the u-grid:

* separator grid: max over u of min{B_u(G), h(G)*u*n} - needs B_u exactly
  only where it is below h*u*n; elsewhere the row minimum is h*u*n, and a
  proof that B_u >= ceil(h*u*n) is enough.  So `full_report` searches every
  row only for separators below that target, from u = 1/2 down: B_u
  does not increase with u, so a lower bound proven at a larger u can
  settle a row with no search at all;
* cheeger grid (k-regular only): max over u of min{h_u/(k+h_u)*n,
  h(G)*u*n} - the transform h_u/(k+h_u)*n is itself a lower bound on B_u,
  so this row never exceeds the separator row.

`grid_rows` alone evaluates the rows (h*u*n, the transform, both row
minima); the grid bounds and `full_report` fold its columns.  All grid
arithmetic is exact rational; ceilings are taken only at report assembly
(gonality is an integer, so a lower bound of 5.04 certifies 6).  One size
cap, `exact_cheeger_cap`, covers the Cheeger scan and the separators.
The bracket is folded once, in `full_report`: a caller that wants the
gonality asks it for the search stage and reads one bracket.

The published constants for random cubic graphs are reproduced as pure
arithmetic pipelines with the external inputs injected as defaults: they
come from cited works, not from this library's computations, and must not
masquerade as computed.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from fractions import Fraction

from gonlab.budget import DEFAULT_BUDGET, BudgetExceededError, SearchBudget
from gonlab.expansion import (
    CheegerProfile,
    SeparatorCertificate,
    _violation,
    b_u,
    cheeger_profile,
    sweep_cuts,
)
from gonlab.gonality import (
    GonalityBracket,
    GonalityCertificate,
    exact_gonality,
    genus_upper_bound,
    greedy_independent_set,
    independence_cap,
    independence_upper_bound,
)
from gonlab.graph import Multigraph, _mask_tuple, genus
from gonlab.spectral import SpectralBound, gonality_bound_bracket, spectral_gonality_bound

DEFAULT_EXACT_CHEEGER_CAP = 24
"""Largest n at which `full_report` runs the Cheeger scan and the separators."""


@dataclass(frozen=True)
class GridRow:
    """One u-grid line of the report; None marks unavailable entries."""

    j: int
    u: Fraction
    h_u: Fraction
    h_times_un: Fraction
    separator_size: int | None
    transform: Fraction | None
    row_min_separator: Fraction | None
    row_min_transform: Fraction | None


def grid_rows(
    g: Multigraph,
    profile: CheegerProfile,
    separators: dict[int, SeparatorCertificate],
) -> tuple[GridRow, ...]:
    """The u-grid lines of the report, one per profile point, in ascending u.

    A point without a certificate in `separators` (keyed by j) gets None in
    its separator columns; the transform columns are None on irregular
    graphs.  A certificate must pin the row minimum min{B_u, h*u*n}: either
    it is optimal, or its `lower_bound` is at least h*u*n, which makes the
    row minimum h*u*n.  `separator_size` is B_u where the certificate is
    optimal and None elsewhere; `row_min_separator` is exact in both cases.
    Refuses a profile of another graph and any other certificate: an upper
    bound on B_u is not a valid gonality lower bound.  Ratios are compared
    by integer cross-multiplication; each printed `Fraction` is built once.
    """
    if profile.n != g.n:
        raise ValueError("profile belongs to a different graph")
    k = g.regularity()
    hn, hd = profile.h.numerator, profile.h.denominator
    rows = []
    for point in profile.points:
        j = point.j
        cert = separators.get(j)
        h_times_un = Fraction(hn * j, hd)
        if cert is not None and not _pins_row(cert, profile.h, j):
            raise ValueError(
                f"separator certificate at u={cert.u} is not optimal and its lower "
                f"bound {cert.lower_bound} is below h*u*n = {h_times_un}"
            )
        transform = row_min_transform = None
        if k is not None:  # h_u/(k+h_u)*n = a*n/(k*b + a) for h_u = a/b
            a, b = point.value.numerator, point.value.denominator
            tn, td = a * g.n, k * b + a
            transform = Fraction(tn, td)
            row_min_transform = transform if tn * hd <= hn * j * td else h_times_un
        row_min_separator = None
        if cert is not None:  # size >= lower_bound >= h*u*n where it is not optimal
            row_min_separator = Fraction(cert.size) if cert.size * hd <= hn * j else h_times_un
        rows.append(
            GridRow(
                j=j,
                u=point.u,
                h_u=point.value,
                h_times_un=h_times_un,
                separator_size=cert.size if cert is not None and cert.optimal else None,
                transform=transform,
                row_min_separator=row_min_separator,
                row_min_transform=row_min_transform,
            )
        )
    return tuple(rows)


def _pins_row(cert: SeparatorCertificate, h: Fraction, j: int) -> bool:
    """Whether `cert` fixes min{B_u, h*j}: B_u is exact, or at least h*j."""
    return cert.optimal or cert.lower_bound * h.denominator >= h.numerator * j


def _witness_boundaries(g: Multigraph, profile: CheegerProfile) -> list[int]:
    """Masks of the inner and outer vertex boundaries of the profile's
    witnesses, smallest first.  Each separates its witness from the rest
    of the graph, so it is a separator at every u that leaves no larger
    component than it does."""
    adj = g._masks
    found = set()
    for witness in {p.witness for p in profile.points}:
        mask = sum(1 << v for v in witness)
        inner = outer = 0
        for v in witness:
            if adj[v] & ~mask:
                inner |= 1 << v
            outer |= adj[v]
        found.update((inner, outer & ~mask))
    return sorted(found, key=int.bit_count)


def _boundary_seed(g: Multigraph, boundaries: list[int], t: int, below: int) -> frozenset[int]:
    """The first of `boundaries` (smallest first) with fewer than `below`
    vertices that leaves no component larger than t, or the empty set.
    Such a seed proves B_u < `below`, so a search with that target runs to
    the optimum from it, as it would from any other seed."""
    full = (1 << g.n) - 1
    for mask in boundaries:
        if mask.bit_count() >= below:
            break
        if _violation(g._masks, full ^ mask, t) is None:
            return frozenset(_mask_tuple(mask))
    return frozenset()


def _transform_floor(g: Multigraph, h_u: Fraction) -> int:
    """ceil(h_u*n/(D + h_u)) with D = `max_valence`, a lower bound on B_u
    at the u of `h_u`.  Every boundary edge of a component left by a
    separator S ends in S, and each component has at most u*n vertices, so
    its boundary is at least h_u times its size: h_u*(n - |S|) <= D*|S|.
    This is the Cheeger grid's transform, on any multigraph."""
    a, b = h_u.numerator, h_u.denominator
    return -(-a * g.n // (g.max_valence * b + a))


def _settled(
    g: Multigraph, u: Fraction, cover: frozenset[int], lower_bound: int
) -> SeparatorCertificate:
    """The certificate of a row whose B_u is already bounded below: the
    vertex cover `cover`, a separator at every u, with that `lower_bound`."""
    return SeparatorCertificate(
        u=u,
        max_component=(u.numerator * g.n) // u.denominator,
        separator=cover,
        size=len(cover),
        component_sizes=(1,) * (g.n - len(cover)),
        optimal=len(cover) == lower_bound,
        lower_bound=lower_bound,
    )


def _first_max(rows: tuple[GridRow, ...], column: str) -> tuple[Fraction, Fraction] | None:
    """(value, u) of the largest non-None entry of `column`, at the smallest
    such u, or None when the column is empty."""
    best = None
    for row in rows:
        value = getattr(row, column)
        if value is not None and (best is None or value > best[0]):
            best = (value, row.u)
    return best


def separator_grid_bound(
    g: Multigraph,
    profile: CheegerProfile,
    separators: dict[int, SeparatorCertificate],
) -> tuple[Fraction, Fraction]:
    """max over grid u of min{B_u, h(G)*u*n}, with the u achieving it.

    B_u decreases in u while h*u*n increases, so the maximum sits at their
    crossing; the smallest maximizing grid point is reported.  Grid points
    missing from `separators` are left out of the maximum.
    """
    best = _first_max(grid_rows(g, profile, separators), "row_min_separator")
    if best is None:
        raise ValueError("no separator certificates supplied")
    return best


def cheeger_grid_bound(g: Multigraph, profile: CheegerProfile) -> tuple[Fraction, Fraction]:
    """max over grid u of min{h_u/(k+h_u)*n, h(G)*u*n} for k-regular graphs."""
    if g.regularity() is None:
        raise ValueError("cheeger grid bound applies to regular graphs only")
    return _first_max(grid_rows(g, profile, {}), "row_min_transform")


def expansion_pipeline_constant(
    k: int = 3,
    h_u_value: float = 0.24,
    u: float = 0.36,
    h_value: float = 1 / 4.95,
) -> float:
    """Per-vertex constant min{h_u/(k+h_u), h*u} with injected inputs.

    Defaults are the published asymptotic constants for random cubic
    graphs: the u-restricted expansion 0.24 attained near u = 0.36, and
    the expansion lower bound 1/4.95.
    """
    return min(h_u_value / (k + h_u_value), h_value * u)


def spectral_pipeline_constant(lambda2: float = 3 - 2 * math.sqrt(2), d: int = 3) -> float:
    """Per-vertex spectral bound with an injected asymptotic lambda2.

    The default is the random-regular spectral gap limit k - 2*sqrt(k-1)
    at k = 3.
    """
    return float(gonality_bound_bracket(Fraction(lambda2), d, 1)[0])


@dataclass(frozen=True)
class BoundReport:
    """Everything known about gon(G) from the bound pipelines.  `rows` is
    empty when the Cheeger scan was skipped by the size cap or stopped by
    the budget; the upper fields are None when the upper-bound stage was
    skipped.  `gonality` is the search stage's result, None when that
    stage was not asked for; `budget_limited` flags the bound stages only,
    a stopped search is the `GonalityBracket` in `gonality`."""

    n: int
    m: int
    k: int | None
    genus: int
    rows: tuple[GridRow, ...]
    separator_bound: tuple[Fraction, Fraction] | None
    cheeger_bound: tuple[Fraction, Fraction] | None
    spectral: SpectralBound | None
    upper_genus: int | None
    upper_independence: int | None
    lower: int
    upper: int | None
    notes: tuple[str, ...]
    budget_limited: bool
    gonality: GonalityCertificate | GonalityBracket | None = None

    @property
    def bracket(self) -> tuple[int, int | None]:
        return (self.lower, self.upper)


def full_report(
    g: Multigraph,
    budget: SearchBudget = DEFAULT_BUDGET,
    *,
    exact_cheeger_cap: int = DEFAULT_EXACT_CHEEGER_CAP,
    upper_bounds: bool = True,
    gonality: bool = False,
) -> BoundReport:
    """Run every applicable bound stage and fold the final integer bracket.

    The stages are the spectral bound, the exact Cheeger profile, the
    separators, the tree fact and, when `upper_bounds` is set, the genus and
    independence upper bounds.  Each stage hands on what it has certified,
    so the later searches start closer to their answers: the sweep cuts of
    the Fiedler vector (`expansion.sweep_cuts`) seed the Cheeger scan, and
    the vertex boundaries of the profile's witnesses seed the separator
    rows.  Seeds shrink the search trees and change step counts, never a
    value or a witness.  The graph's greedy set, alpha cap and bipartite
    test are computed once, on the graph; the lower and upper stages share
    no search result.  The rows run from u = 1/2 down to u = 1/n, and each
    needs only B_u >= ceil(h*j) or the optimum below it.  A row whose B_u
    is already known to reach ceil(h*j) is settled with no search: a row
    at a larger u proved that lower bound, or, at row 1, n -
    `independence_cap` bounds the cover size B_{1/n} = n - alpha from
    below.  Its certificate is the greedy set's complement, a vertex cover
    and so a separator at every u, with that `lower_bound`.  Every other
    row searches only for separators below ceil(h*j): if none exists,
    B_u >= h*j and the row minimum is h*j; if one does, the search runs on
    to the optimum, which is then below h*j and is the row minimum.  Such a
    row starts from the smallest inner or outer vertex boundary of a Cheeger
    witness that is below ceil(h*j) and leaves no component above j, where
    there is one (it proves the optimum lies below the target, so the row
    runs to it as before), and from the greedy cover otherwise.  A boundary
    at or above the target is never a seed: it would print a size where the
    row prints null.  Each searched row also gets a floor (`b_u`'s
    `floor`), the larger of `lb` and the transform bound ceil(h_u*n/(D +
    h_u)) with D = `max_valence` (`_transform_floor`), which holds on any
    multigraph.  A row whose floor reaches its target or its seed opens
    its meter but searches nothing, and any row stops once it finds a
    separator at its floor; the certificates are those of the search
    without a floor.  The minimum vertex cover itself is searched only by
    the independence bound (`gonality.independence_upper_bound`), in the
    upper-bound stage, with n - `independence_cap` as its floor.  A
    Cheeger scan stopped by the budget, or a separator search whose
    certificate does not pin its row minimum, is excluded from the
    lower-bound fold (soundness firewall); it, or a stopped vertex-cover
    search, is recorded in `notes` (rows in ascending u) and flags
    `budget_limited`.  On fewer than 3 vertices the spectral bound is not a
    theorem; its ceiling is then 1 and `notes` says so.  A degree-1 divisor
    has positive rank only on a tree (Baker and Norine, 2007), so `lower` is
    at least 2 from genus 1 on.  A negative `exact_cheeger_cap` is a
    ValueError.

    `gonality` adds the search as the last stage, and implies the upper
    bounds: the ascending search of `gonality.exact_gonality` runs from
    `lower` to `upper`.  Degrees below `lower` are ruled out by the stage
    that set it; degrees `lower` ... value - 1 are searched.  The value
    and witness are those of the search from degree 1.
    """
    if not g.is_connected():
        raise ValueError("bound report requires a connected graph")
    if exact_cheeger_cap < 0:
        raise ValueError("exact_cheeger_cap must not be negative")
    upper_bounds = upper_bounds or gonality
    notes: list[str] = []
    budget_limited = False
    k = g.regularity()
    gen = genus(g)
    # first, so that its Fiedler vector's sweep cuts can seed the scan
    spectral = spectral_gonality_bound(g) if g.n >= 2 else None

    profile: CheegerProfile | None = None
    if g.n > exact_cheeger_cap:
        notes.append(
            f"n={g.n} above exact cheeger cap {exact_cheeger_cap}: "
            "cheeger scan and grid bounds skipped"
        )
    elif g.n >= 2:
        try:
            profile = cheeger_profile(g, budget, seeds=sweep_cuts(g, spectral.fiedler_vector))
        except BudgetExceededError as exc:
            notes.append(f"cheeger scan exhausted budget: {exc}; grid bounds skipped")
            budget_limited = True

    separators: dict[int, SeparatorCertificate] = {}
    rows: tuple[GridRow, ...] = ()
    if profile is not None:
        seed = frozenset(range(g.n)) - greedy_independent_set(g)
        certs = {}
        # B_u does not increase with u, so a lower bound proven at one row
        # holds at every row below it: run down from u = 1/2, keeping in `lb`
        # the largest one so far, and settle a row it already lifts to
        # ceil(h*j) without a search
        hn, hd = profile.h.numerator, profile.h.denominator
        boundaries = _witness_boundaries(g, profile)
        lb = 0
        for point in reversed(profile.points):
            below = -(-hn * point.j // hd)
            if point.j == 1:  # B_{1/n} = n - alpha
                lb = max(lb, g.n - independence_cap(g))
            if lb >= below:
                certs[point.j] = _settled(g, point.u, seed, lb)
            else:
                row_seed = _boundary_seed(g, boundaries, point.j, below) or seed
                floor = max(lb, _transform_floor(g, point.value))
                certs[point.j] = b_u(g, point.u, budget, seed=row_seed, below=below, floor=floor)
                lb = max(lb, certs[point.j].lower_bound)
        for point in profile.points:
            cert = certs[point.j]
            if _pins_row(cert, profile.h, point.j):
                separators[point.j] = cert
            else:
                notes.append(
                    f"separator at u={point.u} not certified optimal "
                    f"(best {cert.size}, lower bound {cert.lower_bound})"
                )
                budget_limited = True
        rows = grid_rows(g, profile, separators)

    # the separator bound is reported only when every row minimum is pinned
    sep_bound = _first_max(rows, "row_min_separator") if len(separators) == len(rows) else None
    cheeger_bound = _first_max(rows, "row_min_transform")
    if k is None:
        notes.append("graph is not regular: cheeger grid bound inapplicable")

    if spectral is not None and spectral.note is not None:
        notes.append(spectral.note)

    upper_genus = upper_independence = upper = None
    if upper_bounds:
        upper_genus = genus_upper_bound(g)
        upper_independence, exact = independence_upper_bound(g, budget)
        if not exact:
            notes.append(
                f"vertex-cover search exhausted budget: independence upper bound "
                f"{upper_independence} comes from the best cover found"
            )
            budget_limited = True
        upper = min(upper_genus, upper_independence)

    # a positive-rank divisor has positive degree, and degree 1 only on a tree
    lower = 2 if gen >= 1 else 1
    for value in (sep_bound, cheeger_bound):
        if value is not None:
            lower = max(lower, math.ceil(value[0]))
    if spectral is not None:
        lower = max(lower, spectral.ceiling)

    return BoundReport(
        n=g.n,
        m=g.m,
        k=k,
        genus=gen,
        rows=rows,
        separator_bound=sep_bound,
        cheeger_bound=cheeger_bound,
        spectral=spectral,
        upper_genus=upper_genus,
        upper_independence=upper_independence,
        lower=lower,
        upper=upper,
        notes=tuple(notes),
        budget_limited=budget_limited,
        gonality=exact_gonality(g, budget, bracket=(lower, upper)) if gonality else None,
    )
