import math
from fractions import Fraction

import pytest

from gonlab.bounds import (
    cheeger_grid_bound,
    expansion_pipeline_constant,
    full_report,
    separator_grid_bound,
    spectral_pipeline_constant,
)
from gonlab.budget import SearchBudget
from gonlab.expansion import b_u, cheeger_profile
from gonlab.gonality import GonalityCertificate, exact_gonality
from gonlab.graph import named_graph


def _grid_inputs(g, budget=None):
    profile = cheeger_profile(g)
    separators = {p.j: b_u(g, p.u) for p in profile.points}
    return profile, separators


def test_cheeger_grid_bound_pappus(pappus):
    profile = cheeger_profile(pappus)
    value, u = cheeger_grid_bound(pappus, profile)
    assert value == Fraction(9, 2)
    assert u == Fraction(1, 3)


def test_cheeger_grid_bound_pappus_row_values(pappus):
    # at u = 6/18 with h_u = 1: min{18/4, (7/9)*6} = 9/2
    profile = cheeger_profile(pappus)
    p = profile.point(6)
    transform = p.value / (3 + p.value) * 18
    assert transform == Fraction(9, 2)
    assert profile.h * 6 == Fraction(14, 3)
    assert min(transform, profile.h * 6) == Fraction(9, 2)


def test_cheeger_grid_bound_k4():
    g = named_graph("k4")
    profile = cheeger_profile(g)
    value, u = cheeger_grid_bound(g, profile)
    # grid point j=2: min{(2/5)*4, 2*2} = 8/5; j=1: min{3/6*4, 2} = 2
    assert value == Fraction(2)
    assert u == Fraction(1, 4)
    p2 = profile.point(2)  # K4 is 3-regular: transform = 2/(3+2)*4
    assert min(p2.value / (3 + p2.value) * 4, profile.h * 2) == Fraction(8, 5)


def test_pappus_exact_separator_rows(pappus):
    """Frozen from the first certified exhaustive run: exact minimum
    separator sizes over the whole grid, and the resulting tight bound."""
    profile = cheeger_profile(pappus)
    separators = {p.j: b_u(pappus, p.u) for p in profile.points}
    assert all(c.optimal for c in separators.values())
    assert [separators[j].size for j in range(1, 10)] == [9, 8, 7, 6, 6, 6, 6, 6, 6]
    value, u = separator_grid_bound(pappus, profile, separators)
    assert value == Fraction(6)
    assert u == Fraction(4, 9)


def test_separator_at_smallest_u_is_vertex_cover(corpus):
    """Components of size <= 1 means the removed set is a vertex cover, so
    B at u = 1/n must equal n - alpha."""
    from gonlab.gonality import max_independent_set

    for g in corpus[:12]:
        cert = b_u(g, Fraction(1, g.n))
        indep, exact = max_independent_set(g)
        assert exact
        assert cert.size == g.n - len(indep)


def test_cheeger_grid_refuses_irregular():
    g = named_graph("path:4")
    with pytest.raises(ValueError):
        cheeger_grid_bound(g, cheeger_profile(g))


def test_grid_bounds_refuse_heuristic_profile():
    g = named_graph("cycle:8")
    heuristic = cheeger_profile(g, exact_cap=4)
    with pytest.raises(ValueError):
        cheeger_grid_bound(g, heuristic)
    with pytest.raises(ValueError):
        separator_grid_bound(g, heuristic, {})


def test_separator_grid_bound_simple_cases():
    for name in ("cycle:6", "k4", "path:5"):
        g = named_graph(name)
        profile, separators = _grid_inputs(g)
        value, u = separator_grid_bound(g, profile, separators)
        gon = exact_gonality(g).value
        assert value <= gon
        assert any(p.u == u for p in profile.points)


def test_separator_grid_refuses_non_optimal(pappus):
    profile = cheeger_profile(pappus)
    cert = b_u(pappus, Fraction(9, 18), SearchBudget(max_nodes=3))
    assert not cert.optimal
    with pytest.raises(ValueError):
        separator_grid_bound(pappus, profile, {9: cert})


def test_transform_never_exceeds_separator_size(corpus):
    """The regular-graph transform h_u/(k+h_u)*n is a lower bound on B_u."""
    for g in [x for x in corpus if x.regularity() is not None][:12]:
        k = g.regularity()
        profile = cheeger_profile(g)
        for p in profile.points:
            cert = b_u(g, p.u)
            assert cert.optimal
            assert p.value / (k + p.value) * g.n <= cert.size


def test_cheeger_bound_never_exceeds_separator_bound(corpus):
    for g in [x for x in corpus if x.regularity() is not None][:12]:
        profile, separators = _grid_inputs(g)
        sep_val, _ = separator_grid_bound(g, profile, separators)
        che_val, _ = cheeger_grid_bound(g, profile)
        assert che_val <= sep_val


def test_row_min_unimodal(corpus):
    """min{B_u, h*u*n} rises along the h*u*n leg then falls along B_u."""
    for g in corpus[:10]:
        profile, separators = _grid_inputs(g)
        h = profile.h
        rows = [min(Fraction(separators[p.j].size), h * p.j) for p in profile.points]
        peak = rows.index(max(rows))
        assert all(rows[i] <= rows[i + 1] for i in range(peak))
        assert all(rows[i] >= rows[i + 1] for i in range(peak, len(rows) - 1))


def test_expansion_pipeline_constant():
    value = expansion_pipeline_constant()
    assert value == pytest.approx(min(0.24 / 3.24, 0.36 / 4.95), abs=1e-15)
    # the published constant 0.072 is the truncation of 0.072727...
    assert math.floor(value * 1000) == 72
    assert value == pytest.approx(0.0727272727, abs=1e-9)


def test_spectral_pipeline_constant_against_mpmath():
    import mpmath

    mpmath.mp.dps = 40
    lam = 3 - 2 * mpmath.sqrt(2)
    expected = (
        1
        / (2 * lam)
        * (-(7 * lam + 27) + 3 * mpmath.sqrt(9 * lam**2 + 42 * lam + 81))
    )
    value = spectral_pipeline_constant()
    assert abs(value - float(expected)) <= 1e-12
    # published as 0.0486: the truncation of 0.048657...
    assert math.floor(value * 10000) == 486


def test_full_report_pappus(pappus):
    report = full_report(pappus)
    assert report.k == 3
    assert report.genus == 10
    assert report.upper_genus == 10
    assert report.upper_independence == 9
    assert report.spectral.ceiling == 6
    assert report.cheeger_bound[0] == Fraction(9, 2)
    assert report.bracket == (6, 9)
    assert not report.budget_limited


def test_full_report_tree():
    report = full_report(named_graph("path:5"))
    assert report.bracket == (1, 1)


def test_full_report_cycle_handles_loose_genus():
    report = full_report(named_graph("cycle:4"))
    assert report.upper_genus_loose
    assert report.upper == 2  # independence bound only; genus-1 bound excluded
    assert report.bracket == (2, 2)


def test_full_report_k4():
    report = full_report(named_graph("k4"))
    gon = exact_gonality(named_graph("k4")).value
    assert gon == 3
    assert report.lower >= 2
    assert report.lower <= gon <= report.upper


def test_full_report_sandwich(corpus):
    for g in corpus[:20]:
        report = full_report(g)
        result = exact_gonality(g)
        assert isinstance(result, GonalityCertificate)
        assert report.lower <= result.value <= report.upper


def test_full_report_heuristic_mode_notes():
    g = named_graph("pappus")
    report = full_report(g, exact_cheeger_cap=10)
    assert not report.profile_exact
    assert report.cheeger_bound is None
    assert report.separator_bound is None
    assert any("heuristic" in note for note in report.notes)
    # spectral and uppers still present
    assert report.spectral is not None
    assert report.bracket == (6, 9)  # spectral ceiling still drives the lower end


def test_full_report_cheeger_budget_is_partial_not_fatal(pappus):
    report = full_report(pappus, SearchBudget(max_nodes=50))
    assert report.budget_limited
    assert not report.profile_exact
    assert report.rows == ()
    assert report.cheeger_bound is None and report.separator_bound is None
    assert any("cheeger scan exhausted budget" in note for note in report.notes)
    assert report.lower <= 6 <= report.upper  # spectral ceiling still certifies 6


def test_full_report_without_upper_bounds():
    g = named_graph("k4")
    full = full_report(g)
    lower_only = full_report(g, upper_bounds=False)
    assert lower_only.upper is None
    assert lower_only.upper_genus is None and lower_only.upper_independence is None
    assert lower_only.lower == full.lower
    assert lower_only.rows == full.rows


def test_exact_gonality_accepts_report_upper(corpus):
    for g in corpus[:10]:
        report = full_report(g)
        assert exact_gonality(g, upper=report.upper) == exact_gonality(g)
