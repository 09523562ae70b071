"""Budget conformance: every engine given a deadline stops near it.

Each input needs well over three times the deadline without a budget
(2-core x86-64, Python 3.11: K20 Cheeger scan 2.8 s, separator 2.5 s,
independent set on cycle:120 over 55 s, gonality search 2.6 s).  A call
must come back within the deadline plus one second, either flagged as
incomplete or by raising BudgetExceededError.
"""

import time
from fractions import Fraction

import pytest

from conftest import complete_graph
from gonlab.budget import BudgetExceededError, SearchBudget
from gonlab.expansion import b_u, cheeger_profile
from gonlab.gonality import GonalityBracket, exact_gonality, max_independent_set
from gonlab.graph import named_graph
from gonlab.randgraph import ConfigModelParams, sample_configuration

DEADLINE_S = 0.3
SLACK_S = 1.0


def _quartic(n: int):
    g = sample_configuration(ConfigModelParams(k=4, n=n, seed=0))
    assert g.is_connected()
    return g


ENGINES = {
    "cheeger_profile": (
        lambda budget: cheeger_profile(complete_graph(20), budget),
        lambda result: False,  # an exact profile never returns partial
    ),
    "b_u": (
        lambda budget: b_u(_quartic(24), Fraction(7, 24), budget),
        lambda cert: not cert.optimal,
    ),
    "max_independent_set": (
        lambda budget: max_independent_set(named_graph("cycle:120"), budget),
        lambda result: not result[1],
    ),
    "exact_gonality": (
        lambda budget: exact_gonality(_quartic(16), budget),
        lambda result: isinstance(result, GonalityBracket),
    ),
}


@pytest.mark.parametrize("engine", sorted(ENGINES))
def test_engine_honours_deadline(engine):
    run, flagged = ENGINES[engine]
    start = time.monotonic()
    try:
        result = run(SearchBudget.with_seconds(DEADLINE_S))
    except BudgetExceededError:
        result = None
    elapsed = time.monotonic() - start
    assert elapsed < DEADLINE_S + SLACK_S, f"{engine} took {elapsed:.2f} s"
    assert result is None or flagged(result)
