"""Assembled gonality bounds: the expansion grid, the transform bound, the
spectral bound, the tree fact, the two upper bounds, the final bracket and,
as an optional last stage, the gonality search inside that bracket.

Two lower-bound families are evaluated over the u-grid:

* separator grid: max over u of min{B_u(G), h(G)*u*n} - needs B_u exactly
  only where it is below h*u*n; elsewhere the row minimum is h*u*n, and a
  proof that B_u >= ceil(h*u*n) is enough.  So `full_report` searches every
  row only for separators below that target, from u = 1/2 down: B_u
  does not increase with u, so a lower bound proven at a larger u can
  settle a row with no search at all;
* cheeger grid: max over u of min{h_u*n/(D+h_u), h(G)*u*n}, D the maximum
  valence - the transform h_u*n/(D+h_u) is itself a lower bound on B_u on
  any multigraph, so this row never exceeds the separator row.

`_grid_row` alone builds a row (h*u*n, the transform, both row minima)
from what is known of B_u there, where `full_report` settles or searches
it and where `grid_rows` takes a caller's certificate; the grid bounds and
`full_report` fold its columns.  All grid arithmetic is exact rational;
ceilings are taken only at report assembly (gonality is an integer, so a
lower bound of 5.04 certifies 6).  One size cap, `exact_cheeger_cap`,
covers the Cheeger scan and the separators.  The bracket is folded once,
in `full_report`: a caller that wants the gonality asks it for the search
stage and reads one bracket.

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
    CheegerPoint,
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
    """One u-grid line of the report, built by `_grid_row`.  None marks a
    separator entry that what is known of B_u does not fix."""

    j: int
    u: Fraction
    h_u: Fraction
    h_times_un: Fraction
    separator_size: int | None
    transform: Fraction
    row_min_separator: Fraction | None
    row_min_transform: Fraction


def _grid_row(
    point: CheegerPoint, h: Fraction, transform: tuple[int, int], size: int, lb: int, optimal: bool
) -> GridRow:
    """The line of `point`, given its `_transform` and what is known of B_u
    there: a separator of `size` vertices, a proven lower bound `lb`, and
    whether the two are equal.  That pins min{B_u, h*j} if B_u is exact or
    at least h*j.  Ratios are compared by integer cross-multiplication;
    each printed `Fraction` is built once."""
    j = point.j
    hn, hd = h.numerator, h.denominator
    tn, td = transform
    h_times_un = Fraction(hn * j, hd)
    value = Fraction(tn, td)
    row_min_separator = None
    if optimal or lb * hd >= hn * j:  # size >= lb >= h*j where not optimal
        row_min_separator = Fraction(size) if size * hd <= hn * j else h_times_un
    return GridRow(
        j=j,
        u=point.u,
        h_u=point.value,
        h_times_un=h_times_un,
        separator_size=size if optimal else None,
        transform=value,
        row_min_separator=row_min_separator,
        row_min_transform=value if tn * hd <= hn * j * td else h_times_un,
    )


def grid_rows(
    g: Multigraph,
    profile: CheegerProfile,
    separators: dict[int, SeparatorCertificate],
) -> tuple[GridRow, ...]:
    """The u-grid lines of the report, one per profile point, in ascending u.

    Each line is built by `_grid_row`, as in `full_report`; a point without
    a certificate in `separators` (keyed by j) gets None in its separator
    columns.  A certificate must come from `b_u` on `g`, since its
    optimality cannot be checked, and must pin the row minimum
    min{B_u, h*u*n}: be optimal, or have a `lower_bound` of at least h*u*n,
    which makes the row minimum h*u*n.  Refuses a profile of another graph,
    a certificate whose `u` is not its row's u, and any other certificate:
    an upper bound on B_u is not a valid gonality lower bound.
    """
    if profile.graph != g:
        raise ValueError("profile belongs to a different graph")
    rows = []
    for point in profile.points:
        cert = separators.get(point.j)
        if cert is not None and cert.u != point.u:
            raise ValueError(f"separator certificate at u={cert.u} is filed under u={point.u}")
        # without a certificate only the trivial separator, all of V, is known
        known = (g.n, 0, False) if cert is None else (cert.size, cert.lower_bound, cert.optimal)
        row = _grid_row(point, profile.h, _transform(g, point.value), *known)
        if cert is not None and row.row_min_separator is None:
            raise ValueError(
                f"separator certificate at u={cert.u} is not optimal and its lower "
                f"bound {cert.lower_bound} is below h*u*n = {row.h_times_un}"
            )
        rows.append(row)
    return tuple(rows)


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


def _transform(g: Multigraph, h_u: Fraction) -> tuple[int, int]:
    """h_u*n/(D + h_u) with D = `max_valence`, as (numerator, denominator):
    a lower bound on B_u at the u of `h_u`, on any multigraph.  Every
    boundary edge of a component left by a separator S ends in S, and each
    component has at most u*n vertices, so its boundary is at least h_u
    times its size: h_u*(n - |S|) <= D*|S|."""
    a, b = h_u.numerator, h_u.denominator
    return a * g.n, g.max_valence * b + a


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
    """max over grid u of min{h_u*n/(D+h_u), h(G)*u*n}, D the maximum valence."""
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
    needs only B_u >= ceil(h*j) or the optimum below it.  B_u does not
    increase with u, so the report keeps one running floor `lb` on B_u,
    which takes in the lower bound of every row above, each row's
    transform ceil(h_u*n/(D + h_u)) (`_transform`) and, at row 1, n -
    `independence_cap`, which bounds B_{1/n} = n - alpha.  A row is settled
    with no search exactly when lb >= ceil(h*j), by lb and the greedy
    set's complement, a vertex cover and so a separator at every u.  Every
    other row calls `b_u` with target ceil(h*j) and floor lb: if no
    separator lies below the target, the row minimum is h*j; if one does,
    the search runs on to the optimum, which is then the row minimum.  Such
    a row starts from the smallest inner or outer vertex boundary of a
    Cheeger witness that is below ceil(h*j) and leaves no component above
    j, where there is one, and from the greedy cover otherwise; a boundary
    at or above the target would print a size where the row prints null.
    Each row is built once, by `_grid_row`, where it is settled or
    searched.  The floor changes step counts, never a certificate.  The
    minimum vertex cover itself is searched only by the independence bound
    (`gonality.independence_upper_bound`), in the upper-bound stage.  A
    Cheeger scan stopped by the budget, or a separator search whose
    certificate does not pin its row minimum, is excluded from the
    lower-bound fold (soundness firewall); it, or a stopped vertex-cover
    search, is recorded in `notes` (rows in ascending u) and flags
    `budget_limited`.  On fewer than 3 vertices the spectral bound is not a
    theorem; its ceiling is then 1 and `notes` says so.  A degree-1 divisor
    has positive rank only on a tree (Baker and Norine, 2007), so `lower`
    is at least 2 from genus 1 on.  A negative `exact_cheeger_cap` is a
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

    rows: tuple[GridRow, ...] = ()
    if profile is not None:
        seed = frozenset(range(g.n)) - greedy_independent_set(g)
        # B_u does not increase with u, so a lower bound proven at one row
        # holds at every row below it: `lb` keeps the largest so far
        hn, hd = profile.h.numerator, profile.h.denominator
        boundaries = _witness_boundaries(g, profile)
        lb = 0
        descending, unpinned = [], []
        for point in reversed(profile.points):
            below = -(-hn * point.j // hd)
            tn, td = _transform(g, point.value)
            lb = max(lb, -(-tn // td))
            if point.j == 1:  # B_{1/n} = n - alpha
                lb = max(lb, g.n - independence_cap(g))
            if lb >= below:  # the greedy cover is a separator at every u
                known = (len(seed), lb, len(seed) == lb)
            else:
                row_seed = _boundary_seed(g, boundaries, point.j, below) or seed
                cert = b_u(g, point.u, budget, seed=row_seed, below=below, floor=lb)
                lb = max(lb, cert.lower_bound)
                known = (cert.size, cert.lower_bound, cert.optimal)
            descending.append(_grid_row(point, profile.h, (tn, td), *known))
            if descending[-1].row_min_separator is None:
                unpinned.append(
                    f"separator at u={point.u} not certified optimal "
                    f"(best {known[0]}, lower bound {known[1]})"
                )
        rows = tuple(reversed(descending))
        notes.extend(reversed(unpinned))
        budget_limited |= bool(unpinned)

    # the separator bound is reported only when every row minimum is pinned
    pinned = all(row.row_min_separator is not None for row in rows)
    sep_bound = _first_max(rows, "row_min_separator") if pinned else None
    cheeger_bound = _first_max(rows, "row_min_transform")

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
