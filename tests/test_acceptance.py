"""Acceptance suite: one test per criterion, each printing a PASS line.

Run with ``pytest tests/test_acceptance.py -v -s`` to see the lines.
"""

import json
import math
import subprocess
import sys
import time
from fractions import Fraction

from gonlab.bounds import (
    cheeger_grid_bound,
    expansion_pipeline_constant,
    separator_grid_bound,
    spectral_pipeline_constant,
)
from gonlab.divisor import Divisor, fire_set, parse_divisor
from gonlab.expansion import b_u, cheeger_profile
from gonlab.gonality import (
    GonalityCertificate,
    exact_gonality,
    genus_upper_bound,
    independence_upper_bound,
)
from gonlab.randgraph import ConfigModelParams, sample_configuration
from gonlab.reduction import has_positive_rank, rank_at_least, v_reduce
from gonlab.spectral import algebraic_connectivity, spectral_gonality_bound
from oracles import LatticeOracle

MIDDLE_RING_LITERAL = "0:1,1:1,2:1,3:1,4:1,5:1"

TABLE_GOLDEN = {
    1: Fraction(3),
    2: Fraction(2),
    3: Fraction(5, 3),
    4: Fraction(3, 2),
    5: Fraction(7, 5),
    6: Fraction(1),
    7: Fraction(1),
    8: Fraction(1),
    9: Fraction(7, 9),
}


def test_criterion_1_pappus_cheeger_table(pappus, cli_env):
    """The u-Cheeger grid of the Pappus graph, exact rationals, zero tolerance."""
    profile = cheeger_profile(pappus)
    got = {p.j: p.value for p in profile.points}
    assert got == TABLE_GOLDEN
    # and through the CLI surface
    out = subprocess.run(
        [sys.executable, "-m", "gonlab.cli", "cheeger", "pappus", "--format", "json"],
        capture_output=True,
        text=True,
        env=cli_env,
    )
    assert out.returncode == 0
    payload = json.loads(out.stdout)
    assert {p["j"]: Fraction(p["h_u"]) for p in payload["points"]} == TABLE_GOLDEN
    print("ACCEPTANCE 1: PASS pappus u-cheeger table exact")


def test_criterion_2_pappus_spectral(pappus):
    summary = algebraic_connectivity(pappus)
    assert abs(summary.lambda2 - (3 - math.sqrt(3))) <= 1e-6
    bound = spectral_gonality_bound(pappus)
    assert abs(bound.value - 5.04) <= 0.01
    assert bound.ceiling == 6
    print(
        f"ACCEPTANCE 2: PASS lambda2={summary.lambda2:.9f} "
        f"bound={bound.value:.4f} ceiling={bound.ceiling}"
    )


def test_criterion_3_pappus_grid_bound_best_at_one_third(pappus):
    """The expansion grid bound, evaluated the way the worked example does
    (regular-graph transform of h_u against h*u*n), peaks at u = 1/3 with
    value exactly 4.5."""
    profile = cheeger_profile(pappus)
    value, u = cheeger_grid_bound(pappus, profile)
    assert value == Fraction(9, 2)
    assert u == Fraction(1, 3)
    print("ACCEPTANCE 3: PASS grid bound 9/2 at u = 1/3 (exact)")


def test_criterion_4_pappus_gonality_certificate(pappus):
    start = time.monotonic()
    middle = parse_divisor(MIDDLE_RING_LITERAL, pappus)
    assert has_positive_rank(middle)
    result = exact_gonality(pappus)
    elapsed = time.monotonic() - start
    assert isinstance(result, GonalityCertificate)
    assert result.value == 6
    assert has_positive_rank(result.witness)
    assert elapsed < 600  # single-threaded budget
    print(
        f"ACCEPTANCE 4: PASS gonality 6 certified in {elapsed:.1f}s "
        f"(degrees 1..5 exhausted; middle-ring divisor has positive rank)"
    )


def test_criterion_5_constant_pipelines():
    expansion = expansion_pipeline_constant()
    assert abs(expansion - min(0.24 / 3.24, 0.36 / 4.95)) <= 1e-15
    # published as 0.072: the printed constant truncates 0.072727...
    assert expansion >= 0.072
    assert math.floor(expansion * 1000) == 72
    assert abs(expansion - 0.0727272727) <= 1e-9

    spectral = spectral_pipeline_constant()
    # published as 0.0486: truncation of 0.048657...
    assert math.floor(spectral * 10000) == 486
    assert abs(spectral - 0.0486570090) <= 1e-9
    print(
        f"ACCEPTANCE 5: PASS pipelines: expansion {expansion:.6f} (prints 0.072), "
        f"spectral {spectral:.6f} (prints 0.0486); asymptotic claims not re-verified"
    )


def _applicable_lower_bounds(g):
    bounds = []
    profile = cheeger_profile(g)
    separators = {p.j: b_u(g, p.u) for p in profile.points}
    if all(c.optimal for c in separators.values()):
        bounds.append(math.ceil(separator_grid_bound(g, profile, separators)[0]))
    if g.regularity() is not None:
        bounds.append(math.ceil(cheeger_grid_bound(g, profile)[0]))
    if g.n >= 2:
        bounds.append(spectral_gonality_bound(g).ceiling)
    return bounds


def test_criterion_6_soundness_sandwich(corpus):
    assert len(corpus) >= 200
    start = time.monotonic()
    violations = []
    for g in corpus:
        result = exact_gonality(g)
        assert isinstance(result, GonalityCertificate)
        upper = min(genus_upper_bound(g), independence_upper_bound(g)[0])
        for lower in _applicable_lower_bounds(g):
            if not (lower <= result.value):
                violations.append((g.edges, lower, result.value))
        if not (result.value <= upper):
            violations.append((g.edges, "upper", upper, result.value))
    elapsed = time.monotonic() - start
    assert violations == []
    assert elapsed < 300
    print(
        f"ACCEPTANCE 6: PASS sandwich holds on {len(corpus)} graphs, "
        f"0 violations, {elapsed:.0f}s"
    )


def test_criterion_7_reduction_properties(corpus):
    import random

    rng = random.Random(101)
    checked = 0
    for g in corpus:
        chips = tuple(rng.randint(-1, 3) for _ in range(g.n))
        v = rng.randrange(g.n)
        d = Divisor(g, chips)
        oracle = LatticeOracle(g)
        reduced = v_reduce(d, v)
        assert v_reduce(reduced, v) == reduced  # idempotence
        assert oracle.equivalent(chips, reduced.chips)  # equivalence preservation
        # canonical agreement: an explicitly fired variant reduces identically
        fired = fire_set(d, frozenset(w for w in range(g.n) if rng.random() < 0.4))
        assert v_reduce(fired, v) == reduced
        # and a generic same-degree divisor agrees with the equivalence test
        other = tuple(rng.randint(-1, 3) for _ in range(g.n))
        other = other[:-1] + (other[-1] + sum(chips) - sum(other),)
        same = v_reduce(Divisor(g, other), v) == reduced
        assert same == oracle.equivalent(other, chips)
        # positive-rank test agrees with the rank-1 enumeration
        eff = tuple(rng.randint(0, 2) for _ in range(g.n))
        assert has_positive_rank(Divisor(g, eff)) == rank_at_least(Divisor(g, eff), 1)
        checked += 1
    print(f"ACCEPTANCE 7: PASS reduction properties on {checked} graphs, 0 violations")


def test_criterion_8_cheeger_inequalities():
    params_list = [
        ConfigModelParams(k=k, n=n, seed=3000 + 17 * k + n)
        for k in (2, 3, 4)
        for n in range(6, 17)
        if (k * n) % 2 == 0
    ]
    checked = 0
    for params in params_list:
        for i in range(2):
            g = sample_configuration(params, i)
            if not g.is_connected():
                continue
            k = g.regularity()
            profile = cheeger_profile(g)
            h = profile.h
            summary = algebraic_connectivity(g)
            lam_lo, lam_hi = summary.interval
            assert lam_lo / 2 <= float(h) + 1e-12
            assert float(h) <= math.sqrt(2 * k * lam_hi) + 1e-12
            checked += 1
    assert checked >= 40
    print(f"ACCEPTANCE 8: PASS cheeger inequalities on {checked} regular samples")


def test_criterion_9_cli_determinism(cli_env):
    cmd = [
        sys.executable,
        "-m",
        "gonlab.cli",
        "random",
        "--k",
        "3",
        "--n",
        "100",
        "--samples",
        "10",
        "--seed",
        "42",
    ]
    first = subprocess.run(cmd, capture_output=True, text=True, env=cli_env)
    second = subprocess.run(cmd, capture_output=True, text=True, env=cli_env)
    threaded = subprocess.run(cmd + ["--threads", "2"], capture_output=True, text=True, env=cli_env)
    assert first.returncode == second.returncode == threaded.returncode == 0
    assert first.stdout == second.stdout
    assert first.stdout == threaded.stdout
    assert first.stdout  # non-empty
    print("ACCEPTANCE 9: PASS byte-identical output across runs and thread counts")
