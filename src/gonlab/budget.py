"""Search budgets shared by the enumerative and branch-and-bound engines.

Every engine stops by one rule: it opens a `Meter` and ticks it once per
step, and the tick raises `BudgetExceededError` once the step count passes
the meter's cap or the deadline has passed.  Both are checked on every
tick, so a cap or a deadline of 0 stops an engine at its first step.
"""

from __future__ import annotations

import time
from dataclasses import dataclass


class BudgetExceededError(RuntimeError):
    """A search hit its enumeration/node/time cap before finishing."""


@dataclass(slots=True)
class Meter:
    """Step counter of one search; see `SearchBudget.meter`."""

    what: str
    cap: int | None
    deadline: float | None
    count: int = 0

    def tick(self) -> None:
        """Count one step; raise once the count passes the cap or the deadline has passed."""
        self.count += 1
        if self.cap is not None and self.count > self.cap:
            raise BudgetExceededError(f"{self.what} exceeded {self.cap} steps")
        if self.deadline is not None and time.monotonic() >= self.deadline:
            raise BudgetExceededError(f"time budget exhausted during {self.what}")


@dataclass(frozen=True)
class SearchBudget:
    """Caps for exhaustive searches.

    max_candidates: divisor enumeration cap (gonality search, rank tests),
        checked when a whole degree level or rank test is admitted.
    max_nodes: step cap of the Cheeger scan, the separator search and the
        independent-set search.
    deadline: absolute time.monotonic() stamp, or None for unlimited.
    """

    max_candidates: int = 5_000_000
    max_nodes: int = 2_000_000
    deadline: float | None = None

    @classmethod
    def with_seconds(cls, seconds: float | None, **kwargs) -> "SearchBudget":
        deadline = None if seconds is None else time.monotonic() + seconds
        return cls(deadline=deadline, **kwargs)

    def meter(self, what: str, cap: int | None = None) -> Meter:
        """A fresh step meter for one search named `what`, stopped by `cap`
        steps (None: no step cap) and by this budget's deadline."""
        return Meter(what, cap, self.deadline)


DEFAULT_BUDGET = SearchBudget()
