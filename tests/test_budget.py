"""Budget conformance: every engine given a deadline stops near it, and a
step cap or deadline of 0 stops it at its first step.

Each deadline input needs well over three times the deadline without a
budget (2-core x86-64, Python 3.11: K22 Cheeger scan 3.7 s, where K20
takes 0.9 s and K21 1.6 s, separator search on a quartic n=32 at
u=10/32 4.1 s, vertex cover of a quartic n=100 (seed 7) over 5 s,
gonality search on a quartic n=18 8.6 s, cycle:300 gonality search
1.7 s, nearly all of it the rank test of its first degree-2 candidate,
which is the witness, rank test on path:800 1.5 s).  A call must come
back within the deadline plus one second, either flagged as incomplete
or by raising BudgetExceededError.
"""

import time
from fractions import Fraction
from pathlib import Path

import pytest

from conftest import complete_graph
from gonlab.budget import BudgetExceededError, SearchBudget
from gonlab.divisor import parse_divisor
from gonlab.expansion import b_u, cheeger_profile
from gonlab.gonality import GonalityBracket, exact_gonality, independence_upper_bound
from gonlab.graph import load_graph, named_graph
from gonlab.randgraph import ConfigModelParams, sample_configuration
from gonlab.reduction import find_rank_obstruction

DEADLINE_S = 0.3
SLACK_S = 1.0


def _quartic(n: int):
    g = sample_configuration(ConfigModelParams(k=4, n=n, seed=0))
    assert g.is_connected()
    return g


def _rank_test(spec: str, divisor: str, budget: SearchBudget):
    g = named_graph(spec)
    return find_rank_obstruction(parse_divisor(divisor, g), 1, budget)


def _never_partial(result) -> bool:
    return False  # only a raise counts as stopping


ENGINES = {
    "cheeger_profile": (
        lambda budget: cheeger_profile(complete_graph(22), budget),
        _never_partial,  # an exact profile never returns partial
    ),
    "b_u": (
        lambda budget: b_u(_quartic(32), Fraction(10, 32), budget),
        lambda cert: not cert.optimal,
    ),
    "independence_upper_bound": (
        lambda budget: independence_upper_bound(
            sample_configuration(ConfigModelParams(k=4, n=100, seed=7)), budget
        ),
        lambda result: not result[1],
    ),
    "exact_gonality": (
        lambda budget: exact_gonality(_quartic(18), budget),
        lambda result: isinstance(result, GonalityBracket),
    ),
    "exact_gonality_long_cycle": (
        lambda budget: exact_gonality(named_graph("cycle:300"), budget),
        lambda result: isinstance(result, GonalityBracket),
    ),
    "find_rank_obstruction": (
        lambda budget: _rank_test("path:800", "0:1", budget),
        _never_partial,
    ),
}


def _stops(run, flagged, budget: SearchBudget, limit_s: float) -> None:
    start = time.monotonic()
    try:
        result = run(budget)
    except BudgetExceededError:
        result = None
    elapsed = time.monotonic() - start
    assert elapsed < limit_s, f"took {elapsed:.2f} s"
    assert result is None or flagged(result)


@pytest.mark.parametrize("engine", sorted(ENGINES))
def test_engine_honours_deadline(engine):
    run, flagged = ENGINES[engine]
    _stops(run, flagged, SearchBudget.with_seconds(DEADLINE_S), DEADLINE_S + SLACK_S)


# the greedy cover of 10 lies above the floor n - alpha_cap = 9, so the
# cover search starts
QUARTIC_16 = load_graph((Path(__file__).parent / "golden" / "quartic16.txt").read_text())

# tiny inputs: each finishes in milliseconds when no budget stops it
ZERO_CAP_ENGINES = {
    "cheeger_profile": (lambda budget: cheeger_profile(named_graph("k4"), budget), _never_partial),
    "b_u": (
        lambda budget: b_u(named_graph("cycle:8"), Fraction(1, 4), budget),
        lambda cert: not cert.optimal,
    ),
    "independence_upper_bound": (
        lambda budget: independence_upper_bound(QUARTIC_16, budget),
        lambda result: not result[1],
    ),
    "exact_gonality": (
        lambda budget: exact_gonality(named_graph("cycle:8"), budget),
        lambda result: isinstance(result, GonalityBracket),
    ),
    "find_rank_obstruction": (
        lambda budget: _rank_test("cycle:8", "0:2", budget),
        _never_partial,
    ),
}


def test_negative_step_cap_is_refused():
    with pytest.raises(ValueError, match="must not be negative"):
        SearchBudget(max_steps=-1)
    with pytest.raises(ValueError, match="must not be negative"):
        SearchBudget.with_seconds(1, max_steps=-3)


@pytest.mark.parametrize("cap", ["seconds", "steps"])
@pytest.mark.parametrize("engine", sorted(ZERO_CAP_ENGINES))
def test_zero_cap_stops_at_first_step(engine, cap):
    run, flagged = ZERO_CAP_ENGINES[engine]
    budget = SearchBudget.with_seconds(0) if cap == "seconds" else SearchBudget(max_steps=0)
    _stops(run, flagged, budget, SLACK_S)
