"""Search budgets shared by every search engine.

Every engine stops by one rule: it opens `budget.meter(what)` and ticks it
once per step, and the tick raises `BudgetExceededError` once the step
count passes the budget's `max_steps` or the deadline has passed.  Both
are checked on every tick, so a cap or a deadline of 0 stops an engine at
its first step.
"""

from __future__ import annotations

import math
import time
from dataclasses import dataclass


class BudgetExceededError(RuntimeError):
    """A search hit its step or time cap before finishing."""


@dataclass(slots=True)
class Meter:
    """Step counter of one search; see `SearchBudget.meter`."""

    what: str
    cap: int
    deadline: float | None
    count: int = 0

    def tick(self) -> None:
        """Count one step; raise once the count passes the cap or the deadline has passed."""
        self.count += 1
        if self.count > self.cap:
            raise BudgetExceededError(f"{self.what} exceeded {self.cap} steps")
        if self.deadline is not None and time.monotonic() >= self.deadline:
            raise BudgetExceededError(f"time budget exhausted during {self.what}")


@dataclass(frozen=True)
class SearchBudget:
    """Caps for exhaustive searches.

    max_steps: step cap of each search (Cheeger scan, separator search,
        one whole gonality search, one rank test); negative is refused.
    deadline: absolute time.monotonic() stamp, or None for unlimited.
    """

    max_steps: int = 2_000_000
    deadline: float | None = None

    def __post_init__(self):
        if self.max_steps < 0:
            raise ValueError("budget steps must not be negative")

    @classmethod
    def with_seconds(cls, seconds: float | None, **kwargs) -> "SearchBudget":
        """Deadline `seconds` from now (None: none).  NaN is refused: no clock
        reading passes it, so it would lift the deadline without a word."""
        if seconds is not None and math.isnan(seconds):
            raise ValueError("budget seconds must be a number, not nan")
        deadline = None if seconds is None else time.monotonic() + seconds
        return cls(deadline=deadline, **kwargs)

    def meter(self, what: str) -> Meter:
        """A fresh step meter for one search named `what`, stopped by
        `max_steps` steps and by this budget's deadline."""
        return Meter(what, self.max_steps, self.deadline)


DEFAULT_BUDGET = SearchBudget()
