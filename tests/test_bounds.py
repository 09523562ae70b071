import itertools
import json
import math
import re
from collections import Counter
from dataclasses import dataclass, replace
from fractions import Fraction
from operator import attrgetter
from pathlib import Path

import numpy as np
import pytest

from conftest import RecordingBudget, complete_graph, cubic_bounds_inputs
from gonlab.bounds import (
    cheeger_grid_bound,
    expansion_pipeline_constant,
    full_report,
    grid_rows,
    separator_grid_bound,
    spectral_pipeline_constant,
)
from gonlab.budget import SearchBudget
from gonlab.expansion import b_u, cheeger_profile
from gonlab.gonality import GonalityCertificate, exact_gonality, independence_upper_bound
from gonlab.graph import Multigraph, load_graph, named_graph
from gonlab.randgraph import ConfigModelParams, sample_configuration
from oracles import brute_alpha, brute_b_u, brute_gonality

GOLDEN_DIR = Path(__file__).parent / "golden"


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
    p = profile.points[6 - 1]
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
    p2 = profile.points[2 - 1]  # K4 is 3-regular: transform = 2/(3+2)*4
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


def test_separator_at_smallest_u_is_vertex_cover(corpus, pappus):
    """Components of size <= 1 means the removed set is a vertex cover, so
    B at u = 1/n must equal n - alpha."""
    assert brute_alpha(pappus) == 9
    for g in corpus + [pappus]:
        cert = b_u(g, Fraction(1, g.n))
        assert cert.optimal
        assert cert.size == g.n - brute_alpha(g)


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
    cert = b_u(pappus, Fraction(9, 18), SearchBudget(max_steps=3))
    assert not cert.optimal
    with pytest.raises(ValueError):
        separator_grid_bound(pappus, profile, {9: cert})


def test_grid_rows_with_partial_separators(pappus):
    """Certified points fill both separator columns, the others stay None;
    the separator grid bound folds only the certified points."""
    profile = cheeger_profile(pappus)
    separators = {j: b_u(pappus, profile.points[j - 1].u) for j in (4, 5)}
    rows = grid_rows(pappus, profile, separators)
    assert [r.j for r in rows] == list(range(1, 10))
    assert [r.separator_size for r in rows] == [None, None, None, 6, 6, None, None, None, None]
    assert [r.row_min_separator for r in rows[3:5]] == [Fraction(28, 9), Fraction(35, 9)]
    assert all(r.row_min_separator is None for r in rows if r.j not in separators)
    assert all(r.h_times_un == profile.h * r.j for r in rows)
    assert all(r.row_min_transform == min(r.transform, r.h_times_un) for r in rows)
    assert separator_grid_bound(pappus, profile, separators) == (Fraction(35, 9), Fraction(5, 18))


def test_grid_rows_take_a_certificate_that_pins_the_row(pappus):
    """A certificate that proves only B_u >= ceil(h*u*n) fixes the row
    minimum at h*u*n but gives no size; one that proves less is refused."""
    profile = cheeger_profile(pappus)
    u = profile.points[1].u  # j = 2: h*u*n = 14/9 and B_u = 8
    capped = b_u(pappus, u, below=2)
    assert not capped.optimal and capped.lower_bound == 2
    row = grid_rows(pappus, profile, {2: capped})[1]
    assert row.separator_size is None and row.row_min_separator == Fraction(14, 9)
    with pytest.raises(ValueError, match="below h\\*u\\*n"):
        grid_rows(pappus, profile, {2: b_u(pappus, u, below=1)})


def test_grid_rows_refusals_and_irregular_columns(pappus):
    path = named_graph("path:6")  # valences 1 and 2, so D = 2
    rows = grid_rows(path, cheeger_profile(path), {})
    assert [r.transform for r in rows] == [r.h_u * 6 / (2 + r.h_u) for r in rows]
    assert all(r.row_min_transform == min(r.transform, r.h_times_un) for r in rows)
    with pytest.raises(ValueError, match="different graph"):
        grid_rows(named_graph("cycle:10"), cheeger_profile(pappus), {})
    with pytest.raises(ValueError, match="no separator certificates"):
        separator_grid_bound(pappus, cheeger_profile(pappus), {})


def test_grid_rows_refuse_a_profile_of_another_graph_on_as_many_vertices(pappus):
    """K18's profile on Pappus would fold to a lower bound of 16 (288/19)
    on a graph of gonality 6: the profile must be of the graph itself."""
    with pytest.raises(ValueError, match="different graph"):
        cheeger_grid_bound(pappus, cheeger_profile(complete_graph(18)))


def test_grid_rows_refuse_a_certificate_filed_under_another_row(pappus):
    """B_{1/18} = 9 filed under j = 9 would print a row minimum of 7 at
    u = 1/2, where the true one is B_{1/2} = 6."""
    profile = cheeger_profile(pappus)
    with pytest.raises(ValueError, match="filed under u=1/2"):
        separator_grid_bound(pappus, profile, {9: b_u(pappus, Fraction(1, 18))})


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


def test_full_report_k2_bracket():
    """The spectral formula gives 1.316 on K2, above its gonality 1; the
    bound is a theorem only from 3 vertices, so its ceiling is 1 there.
    A double edge (gonality 2) keeps a sound bracket too."""
    report = full_report(named_graph("path:2"))
    assert report.spectral.ceiling == 1 and report.spectral.low > 1
    assert report.bracket == (1, 1)
    assert report.notes == (
        "n=2 below 3: the spectral bound does not apply, its ceiling is the trivial 1",
    )
    banana = full_report(Multigraph.from_edges(2, [(0, 1)] * 2))
    assert banana.lower <= 2 <= banana.upper


def test_full_report_tree_fact_lifts_lower_to_two():
    """A degree-1 divisor has positive rank only on a tree, so from genus 1
    on `lower` is at least 2, also where every other stage gives 1."""
    report = full_report(named_graph("cycle:200"))
    assert report.rows == () and report.spectral.ceiling == 1
    assert report.bracket == (2, 2)


def _connected_cubic12(count: int) -> list[Multigraph]:
    params = ConfigModelParams(k=3, n=12, seed=1)
    samples = (sample_configuration(params, i) for i in itertools.count())
    return list(itertools.islice((g for g in samples if g.is_connected()), count))


def test_staged_search_matches_the_search_from_degree_one(corpus, pappus):
    """The search stage starts at the report's certified `lower`, so it
    cannot falsify it; the search from degree 1 does: its value lies in
    the report's bracket, and the staged value and witness equal its own."""
    for g in corpus + [pappus] + _connected_cubic12(40):
        report = full_report(g, gonality=True)
        plain = exact_gonality(g)
        assert isinstance(plain, GonalityCertificate)
        assert report.lower <= plain.value <= report.upper
        staged = report.gonality
        assert isinstance(staged, GonalityCertificate)
        assert (staged.value, staged.witness.chips) == (plain.value, plain.witness.chips)
        assert report == replace(full_report(g), gonality=staged)


def test_staged_search_on_pappus_searches_only_the_bracket(pappus):
    """Degrees 1 to 5 are ruled out by the spectral bound, so the search
    stage takes 17 steps where the search from degree 1 takes 14,137."""
    budget = RecordingBudget()
    report = full_report(pappus, budget, gonality=True)
    assert report.bracket == (6, 9) and report.gonality.value == 6
    assert [m.count for m in budget.meters if m.what == "gonality search"] == [17]


def test_full_report_skips_a_cover_search_that_cannot_pay():
    """On a non-bipartite cubic graph no vertex cover beats the genus bound,
    so the report opens no cover meter, is not flagged, and has the genus
    bound as `upper`."""
    g = sample_configuration(ConfigModelParams(k=3, n=200, seed=7))
    budget = RecordingBudget()
    report = full_report(g, budget)
    assert not any(m.what.startswith("separator search") for m in budget.meters)
    assert not report.budget_limited
    assert report.upper == report.upper_genus == 101


def test_full_report_refuses_a_negative_cheeger_cap():
    with pytest.raises(ValueError, match="must not be negative"):
        full_report(named_graph("k4"), exact_cheeger_cap=-5)
    assert full_report(named_graph("k4"), exact_cheeger_cap=0).rows == ()


def test_full_report_cycle_handles_loose_genus():
    """Genus 1, where `genus` itself would be no bound: the genus bound
    is genus + 1 = 2, which is exact and folds into `upper` like any other."""
    report = full_report(named_graph("cycle:4"))
    assert report.upper_genus == 2
    assert report.bracket == (2, 2)
    assert report.notes == ()


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


def test_full_report_rows_match_the_separator_oracle(corpus, pappus):
    """The report seeds each grid point with the vertex cover, runs rows
    j >= 2 from u = 1/2 down and searches them only below ceil(h*j),
    settling a row with no search where a larger u's lower bound already
    reaches that target.  Each row minimum is the
    one of the exact B_u; a row prints B_u exactly or, where it is null,
    B_u reaches ceil(h*j).  The separator bound is the one that uncapped
    searches give."""
    for g in corpus + [pappus]:
        report = full_report(g, upper_bounds=False)
        assert not report.budget_limited
        for row in report.rows:
            exact = brute_b_u(g, row.j)
            assert row.row_min_separator == min(Fraction(exact), row.h_times_un)
            if row.separator_size is None:
                assert exact >= math.ceil(row.h_times_un)
            else:
                assert row.separator_size == exact
        profile, separators = _grid_inputs(g)
        assert report.separator_bound == separator_grid_bound(g, profile, separators)
        assert report.cheeger_bound == cheeger_grid_bound(g, profile)
        columns = attrgetter("h_times_un", "transform", "row_min_transform", "row_min_separator")
        assert list(map(columns, report.rows)) == list(
            map(columns, grid_rows(g, profile, separators))
        )


def test_full_report_shares_the_cover_search(corpus, pappus):
    """The report's upper stage runs the independence bound's own
    vertex-cover search, so its bound and exactness are the standalone
    ones."""
    for g in corpus + [pappus]:
        report = full_report(g)
        assert (report.upper_independence, not report.budget_limited) == independence_upper_bound(g)


def test_full_report_without_upper_bounds_runs_no_cover_search(pappus):
    """Only the independence bound searches for a vertex cover: without the
    upper stage no u = 1/n meter opens, and the lower stages print the
    same rows and bounds."""
    budget = RecordingBudget()
    report = full_report(pappus, budget, upper_bounds=False)
    assert "separator search u=1/18" not in [m.what for m in budget.meters]
    full = full_report(pappus)
    assert (report.rows, report.separator_bound, report.lower) == (
        full.rows,
        full.separator_bound,
        full.lower,
    )


def test_full_report_notes_a_stopped_cover_search():
    """quartic16's greedy cover has 10 vertices, above its floor n -
    alpha_cap = 9, and the genus bound 17 leaves room, so the cover search
    starts and the zero cap stops it."""
    g = load_graph((GOLDEN_DIR / "quartic16.txt").read_text())
    report = full_report(g, SearchBudget(max_steps=0), exact_cheeger_cap=0)
    assert report.budget_limited
    assert report.notes[-1] == (
        "vertex-cover search exhausted budget: independence upper bound 13 "
        "comes from the best cover found"
    )


def test_full_report_above_cheeger_cap_notes_skipped_scan():
    g = named_graph("pappus")
    report = full_report(g, exact_cheeger_cap=10)
    assert report.rows == ()
    assert report.cheeger_bound is None
    assert report.separator_bound is None
    assert report.notes == ("n=18 above exact cheeger cap 10: cheeger scan and grid bounds skipped",)
    # spectral and uppers still present
    assert report.spectral is not None
    assert report.bracket == (6, 9)  # spectral ceiling still drives the lower end


def test_full_report_cheeger_budget_is_partial_not_fatal(pappus):
    report = full_report(pappus, SearchBudget(max_steps=50))
    assert report.budget_limited
    assert report.rows == ()
    assert report.cheeger_bound is None and report.separator_bound is None
    assert any("cheeger scan exhausted budget" in note for note in report.notes)
    assert report.lower <= 6 <= report.upper  # spectral ceiling still certifies 6


def test_full_report_under_step_caps(corpus, pappus):
    """Rows run from u = 1/2 down and settled rows open no meter, so a step
    cap stops other searches than a bottom-up sweep would.  Under every cap
    the bracket holds the gonality (the oracle's where n <= 6, the corpus
    fixture elsewhere, 6 on Pappus).  A report is flagged only when some
    search ran past the cap; one that is not flagged has the uncapped
    bounds and row minima, and one no search stopped is the uncapped report.
    (These caps stop the scan before any row; the next test stops rows.)"""
    fixture = json.loads((GOLDEN_DIR / "corpus_gonality.json").read_text())
    cases = [
        (g, brute_gonality(g) if g.n <= 6 else gon) for g, gon in zip(corpus, fixture, strict=True)
    ]
    flagged = 0
    for g, gon in cases + [(pappus, 6)]:
        full = full_report(g)
        for cap in (0, 10, 50, 300):
            budget = RecordingBudget(max_steps=cap)
            report = full_report(g, budget)
            assert report.lower <= gon <= report.upper
            stopped = any(m.count > cap for m in budget.meters)
            if not stopped:
                assert report == full
            if report.budget_limited:
                assert stopped
                flagged += 1
            else:
                assert report.bracket == full.bracket
                assert (report.separator_bound, report.cheeger_bound) == (
                    full.separator_bound,
                    full.cheeger_bound,
                )
                assert [r.row_min_separator for r in report.rows] == [
                    r.row_min_separator for r in full.rows
                ]
    assert flagged >= len(cases)  # a cap of 0 flags every report


ROW_NOTE = re.compile(r"separator at u=(\S+) not certified optimal")


@dataclass(frozen=True)
class SeparatorCapBudget(SearchBudget):
    """Caps only the separator searches, so the scan finishes and several
    rows can stop."""

    def meter(self, what):
        if what.startswith("separator search"):
            return super().meter(what)
        return SearchBudget().meter(what)


def test_transform_floor_never_exceeds_b_u(corpus):
    """The ceiling of the `transform` column, h_u*n/(D + h_u) with D the
    maximum valence, is a lower bound on B_u on any multigraph: against
    brute force on every corpus graph (irregular and multigraphs among
    them), on configuration-model multigraphs of 11 and 12 vertices, and on
    the irregular corpus graphs with their edge of least valence sum
    doubled, at every grid u."""
    samples = [
        sample_configuration(ConfigModelParams(k=k, n=n, seed=7), i)
        for k, n in ((3, 12), (4, 11), (4, 12), (5, 12))
        for i in range(3)
    ]
    doubled = []
    for g in corpus:
        if g.regularity() is None:
            pairs = [(a, b) for a, b, mult in g.edges for _ in range(mult)]
            pairs.append(min(pairs, key=lambda e: g.val(e[0]) + g.val(e[1])))
            doubled.append(Multigraph.from_edges(g.n, pairs))
    graphs = corpus + [g for g in samples if g.is_connected()] + doubled
    multi = [any(mult > 1 for _, _, mult in g.edges) for g in graphs]
    irregular = [g.regularity() is None for g in graphs]
    assert sum(multi) >= 20 and sum(irregular) >= 20
    assert sum(map(bool.__and__, multi, irregular)) >= 20
    tight = 0
    for g in graphs:
        for row in grid_rows(g, cheeger_profile(g), {}):
            floor = math.ceil(row.transform)
            exact = brute_b_u(g, row.j)
            assert floor <= exact, (g.edges, row.j)
            tight += floor == exact
    assert tight >= 100


def test_cheeger_bound_never_exceeds_gonality(corpus):
    """The report's Cheeger grid bound is a gonality lower bound on every
    corpus graph, the 141 irregular ones included (tight on 22 of them)."""
    fixture = json.loads((GOLDEN_DIR / "corpus_gonality.json").read_text())
    irregular = tight = 0
    for g, gon in zip(corpus, fixture, strict=True):
        bound = math.ceil(full_report(g).cheeger_bound[0])
        assert bound <= gon, g.edges
        if g.regularity() is None:
            irregular += 1
            tight += bound == gon
    assert (irregular, tight) == (141, 22)


def test_full_report_notes_stopped_rows_in_ascending_u(pappus):
    """Rows are searched from u = 1/2 down, but their notes read up the
    grid.  A stopped row that does not pin its minimum drops the separator
    bound, never raises `lower`, and flags the report."""
    stopped_rows = 0
    for g in [pappus] + cubic_bounds_inputs(8):
        full = full_report(g)
        for cap in (3, 10, 50, 300):
            budget = SeparatorCapBudget(max_steps=cap)
            report = full_report(g, budget)
            us = [Fraction(m.group(1)) for m in map(ROW_NOTE.match, report.notes) if m]
            assert us == sorted(set(us))
            stopped_rows += len(us)
            cover_stopped = any(n.startswith("vertex-cover search exhausted") for n in report.notes)
            assert report.budget_limited == (bool(us) or cover_stopped)
            assert report.lower <= full.lower
            if us:
                assert report.separator_bound is None
    assert stopped_rows >= 40


def test_full_report_solves_one_eigenproblem(pappus, monkeypatch):
    """The spectral stage's Fiedler vector also gives the scan's sweep
    cuts, so a report calls the eigensolver once."""
    calls = []
    eigh = np.linalg.eigh

    def counted(a):
        calls.append(1)
        return eigh(a)

    monkeypatch.setattr(np.linalg, "eigh", counted)
    assert full_report(pappus).bracket == (6, 9)
    assert len(calls) == 1


def test_full_report_without_upper_bounds():
    g = named_graph("k4")
    full = full_report(g)
    lower_only = full_report(g, upper_bounds=False)
    assert lower_only.upper is None
    assert lower_only.upper_genus is None and lower_only.upper_independence is None
    assert lower_only.lower == full.lower
    assert lower_only.rows == full.rows


# the first input of perfbench's cubic-bounds workload at seed 1
CUBIC_16 = Multigraph.from_edges(
    16,
    [
        (5, 15), (2, 7), (2, 9), (9, 12), (11, 6), (11, 13), (8, 13), (5, 7),
        (1, 14), (0, 15), (15, 12), (8, 2), (8, 10), (1, 4), (4, 3), (3, 10),
        (14, 5), (14, 3), (10, 7), (4, 6), (9, 11), (12, 1), (0, 6), (0, 13),
    ],
)


@pytest.mark.parametrize(
    "g, counts",
    [
        (
            named_graph("pappus"),
            [
                ("cheeger scan", 4232),
                ("separator search u=1/2", 4056),
                ("separator search u=4/9", 0),
                ("separator search u=1/18", 0),
            ],
        ),
        (
            CUBIC_16,
            [
                ("cheeger scan", 652),
                ("separator search u=1/2", 0),
                ("separator search u=7/16", 672),
            ],
        ),
    ],
    ids=["pappus", "cubic16"],
)
def test_full_report_work_counts_are_pinned(g, counts):
    """Every search's step count in the bound report.  The engines' search
    trees, branch orders and tie-breaks decide these counts, so a rewrite
    that keeps them keeps the trees.  Rows run from u = 1/2 down and search
    only below ceil(h*j); a row whose target the report's running floor
    already reaches opens no meter (Pappus searches rows 9 and 8 and
    settles 7 to 1, cubic16 searches rows 8 and 7 and settles 6 to 1).
    The vertex-cover search (u = 1/n) is the independence bound's, after
    the rows: on Pappus, which is bipartite, a cover could beat the genus
    bound, so it opens its meter, but its greedy cover already has n -
    alpha_cap = 9 vertices and it takes no step; on cubic16 no cover
    could, and it opens none.  The scan starts from the sweep cuts of the
    Fiedler vector, and cubic16's row 8 from a witness boundary below its
    target; each meter names its row's u.  A searched row whose floor
    reaches its seed opens its meter and takes no step: Pappus row 8,
    whose boundary seed of 6 meets row 9's bound, and cubic16 row 8, whose
    boundary seed of 4 meets the transform bound."""
    budget = RecordingBudget()
    full_report(g, budget)
    assert [(m.what, m.count) for m in budget.meters] == counts


def test_cubic_bounds_work_totals_are_pinned():
    """Steps per meter over the first 64 seed-1 inputs of the benchmark's
    cubic-bounds workload, summed by meter name.  A change to a search
    tree, a seed or a branch order shows here as a work count, next to
    the benchmark's wall time.  Only rows 8 and 7 (u = 1/2, 7/16) search
    on these inputs; every other row is settled.  Rows whose floor meets
    their seed take no step, and the others stop at a separator of the
    floor's size."""
    totals = Counter()
    for g in cubic_bounds_inputs(64):
        budget = RecordingBudget()
        full_report(g, budget)
        for m in budget.meters:
            totals[m.what] += m.count
    assert totals == {
        "cheeger scan": 22247,
        "separator search u=1/2": 5855,
        "separator search u=7/16": 4066,
    }
