"""Search budgets shared by the enumerative and branch-and-bound engines."""

from __future__ import annotations

import time
from dataclasses import dataclass


class BudgetExceededError(RuntimeError):
    """A search hit its enumeration/node/time cap before finishing.

    `bracket`, when present, is the best-known (lower, upper) range for the
    quantity being computed.
    """

    def __init__(self, message: str, bracket: tuple[int, int] | None = None):
        super().__init__(message)
        self.bracket = bracket


@dataclass(frozen=True)
class SearchBudget:
    """Caps for exhaustive searches.

    max_candidates: divisor enumeration cap (gonality search, rank tests).
    max_nodes: branch-and-bound node cap (separators, independent sets).
    deadline: absolute time.monotonic() stamp, or None for unlimited.
    """

    max_candidates: int = 5_000_000
    max_nodes: int = 2_000_000
    deadline: float | None = None

    @classmethod
    def with_seconds(cls, seconds: float | None, **kwargs) -> "SearchBudget":
        deadline = None if seconds is None else time.monotonic() + seconds
        return cls(deadline=deadline, **kwargs)

    def check_deadline(self, what: str) -> None:
        if self.deadline is not None and time.monotonic() >= self.deadline:
            raise BudgetExceededError(f"time budget exhausted during {what}")


DEFAULT_BUDGET = SearchBudget()
