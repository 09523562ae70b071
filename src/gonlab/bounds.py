"""Assembled gonality bounds: the expansion grid, the regular-graph
transform, the spectral bound, the two upper bounds, and the final bracket.

Two lower-bound families are evaluated over the u-grid:

* separator grid: max over u of min{B_u(G), h(G)*u*n} - needs exact
  separator sizes;
* cheeger grid (k-regular only): max over u of min{h_u/(k+h_u)*n,
  h(G)*u*n} - the transform h_u/(k+h_u)*n is itself a lower bound on B_u,
  so this row never exceeds the separator row.

All grid arithmetic is exact rational; ceilings are taken only at report
assembly (gonality is an integer, so a lower bound of 5.04 certifies 6).

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
    DEFAULT_EXACT_CHEEGER_CAP,
    CheegerProfile,
    SeparatorCertificate,
    b_u,
    cheeger_profile,
)
from gonlab.gonality import genus_bound_is_loose, genus_upper_bound, independence_upper_bound
from gonlab.graph import Multigraph, genus
from gonlab.spectral import SpectralBound, gonality_bound_formula, spectral_gonality_bound


def separator_grid_bound(
    g: Multigraph,
    profile: CheegerProfile,
    separators: dict[int, SeparatorCertificate],
) -> tuple[Fraction, Fraction]:
    """max over grid u of min{B_u, h(G)*u*n}, with the u achieving it.

    B_u decreases in u while h*u*n increases, so the maximum sits at their
    crossing; the smallest maximizing grid point is reported.  Refuses
    heuristic profiles and non-optimal separator certificates: an upper
    bound on either invariant is not a valid gonality lower bound.
    """
    if profile.n != g.n:
        raise ValueError("profile belongs to a different graph")
    if not profile.exact:
        raise ValueError("separator grid bound needs an exact cheeger profile")
    h = profile.h
    best: tuple[Fraction, Fraction] | None = None
    for point in profile.points:
        cert = separators.get(point.j)
        if cert is None:
            continue
        if not cert.optimal:
            raise ValueError(f"separator certificate at u={cert.u} is not optimal")
        row = min(Fraction(cert.size), h * point.j)
        if best is None or row > best[0]:
            best = (row, point.u)
    if best is None:
        raise ValueError("no separator certificates supplied")
    return best


def cheeger_grid_bound(g: Multigraph, profile: CheegerProfile) -> tuple[Fraction, Fraction]:
    """max over grid u of min{h_u/(k+h_u)*n, h(G)*u*n} for k-regular graphs."""
    k = g.regularity()
    if k is None:
        raise ValueError("cheeger grid bound applies to regular graphs only")
    if profile.n != g.n:
        raise ValueError("profile belongs to a different graph")
    if not profile.exact:
        raise ValueError("cheeger grid bound needs an exact cheeger profile")
    h = profile.h
    best: tuple[Fraction, Fraction] | None = None
    for point in profile.points:
        transform = point.value / (k + point.value) * g.n
        row = min(transform, h * point.j)
        if best is None or row > best[0]:
            best = (row, point.u)
    assert best is not None
    return best


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
    return gonality_bound_formula(lambda2, d, 1)


@dataclass(frozen=True)
class GridRow:
    """One u-grid line of the report; None marks unavailable entries."""

    j: int
    u: Fraction
    h_u: Fraction
    hun: Fraction
    separator_size: int | None
    transform: Fraction | None
    row_min_separator: Fraction | None
    row_min_transform: Fraction | None


@dataclass(frozen=True)
class BoundReport:
    """Everything known about gon(G) from the bound pipelines.  `rows` is
    empty without an exact Cheeger profile; the upper fields are None when
    the upper-bound stage was skipped."""

    n: int
    m: int
    k: int | None
    genus: int
    profile_exact: bool
    rows: tuple[GridRow, ...]
    separator_bound: tuple[Fraction, Fraction] | None
    cheeger_bound: tuple[Fraction, Fraction] | None
    spectral: SpectralBound | None
    upper_genus: int | None
    upper_genus_loose: bool
    upper_independence: int | None
    lower: int
    upper: int | None
    notes: tuple[str, ...]
    budget_limited: bool

    @property
    def bracket(self) -> tuple[int, int | None]:
        return (self.lower, self.upper)


def full_report(
    g: Multigraph,
    budget: SearchBudget = DEFAULT_BUDGET,
    *,
    exact_cheeger_cap: int = DEFAULT_EXACT_CHEEGER_CAP,
    separator_cap: int = DEFAULT_EXACT_CHEEGER_CAP,
    tol: float = 1e-9,
    upper_bounds: bool = True,
) -> BoundReport:
    """Run every applicable bound stage and fold the final integer bracket.

    The stages are the exact Cheeger profile, the separators, the spectral
    bound and, when `upper_bounds` is set, the genus and independence upper
    bounds.  A Cheeger scan or separator search stopped by the budget is
    excluded from the lower-bound fold (soundness firewall), recorded in
    `notes` and flags `budget_limited`.
    """
    if not g.is_connected():
        raise ValueError("bound report requires a connected graph")
    notes: list[str] = []
    budget_limited = False
    k = g.regularity()
    gen = genus(g)

    profile: CheegerProfile | None = None
    if g.n > exact_cheeger_cap:
        notes.append(
            f"n={g.n} above exact cheeger cap {exact_cheeger_cap}: "
            "profile is heuristic (upper bounds only), grid bounds skipped"
        )
    else:
        try:
            profile = cheeger_profile(g, budget, exact_cap=exact_cheeger_cap)
        except BudgetExceededError as exc:
            notes.append(f"cheeger scan exhausted budget: {exc}; grid bounds skipped")
            budget_limited = True

    separators: dict[int, SeparatorCertificate] = {}
    if profile is not None and g.n <= separator_cap:
        for point in profile.points:
            cert = b_u(g, point.u, budget)  # a budget stop returns optimal=False
            if cert.optimal:
                separators[point.j] = cert
            else:
                notes.append(
                    f"separator at u={point.u} not certified optimal "
                    f"(best {cert.size}, lower bound {cert.lower_bound})"
                )
                budget_limited = True
    elif profile is not None:
        notes.append(f"n={g.n} above separator cap {separator_cap}: separator rows skipped")

    rows: list[GridRow] = []
    if profile is not None:
        h = profile.h
        for point in profile.points:
            cert = separators.get(point.j)
            transform = point.value / (k + point.value) * g.n if k is not None else None
            hun = h * point.j
            rows.append(
                GridRow(
                    j=point.j,
                    u=point.u,
                    h_u=point.value,
                    hun=hun,
                    separator_size=cert.size if cert else None,
                    transform=transform,
                    row_min_separator=min(Fraction(cert.size), hun) if cert else None,
                    row_min_transform=min(transform, hun) if transform is not None else None,
                )
            )

    sep_bound = None
    if profile is not None and len(separators) == len(profile.points):
        sep_bound = separator_grid_bound(g, profile, separators)
    cheeger_bound = None
    if profile is not None and k is not None:
        cheeger_bound = cheeger_grid_bound(g, profile)
    elif k is None:
        notes.append("graph is not regular: cheeger grid bound inapplicable")

    spectral = None
    if g.n >= 2:
        spectral = spectral_gonality_bound(g, tol=tol)

    loose = genus_bound_is_loose(g)
    upper_genus = upper_independence = upper = None
    if upper_bounds:
        upper_genus = genus_upper_bound(g)
        upper_independence = independence_upper_bound(g, budget)
        upper = upper_independence if loose else min(upper_genus, upper_independence)
        if loose:
            notes.append("genus 1: the genus upper bound is loose and excluded from the fold")

    lower = 1  # a positive-rank divisor has positive degree
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
        profile_exact=profile is not None,
        rows=tuple(rows),
        separator_bound=sep_bound,
        cheeger_bound=cheeger_bound,
        spectral=spectral,
        upper_genus=upper_genus,
        upper_genus_loose=loose,
        upper_independence=upper_independence,
        lower=lower,
        upper=upper,
        notes=tuple(notes),
        budget_limited=budget_limited,
    )
