"""Node budgets for the exponential searches.

A budget counts search-tree nodes, not wall time; polynomial subroutines do
not charge.  Exceeding the limit raises BudgetExhausted, which callers turn
into an Unknown verdict rather than a negative answer.
"""

from __future__ import annotations

from dataclasses import dataclass

DEFAULT_BUDGET = 10_000_000


class BudgetExhausted(Exception):
    def __init__(self, used: int):
        super().__init__(f"search budget exhausted after {used} nodes")
        self.used = used


@dataclass
class Budget:
    limit: int | None
    used: int = 0

    def charge(self, amount: int = 1) -> None:
        self.used += amount
        if self.limit is not None and self.used > self.limit:
            raise BudgetExhausted(self.used)

    @property
    def remaining(self) -> int | None:
        if self.limit is None:
            return None
        return max(0, self.limit - self.used)


def as_budget(budget) -> Budget:
    """Accept an int limit, an existing Budget, or None (unlimited); a
    bool is refused, although it is an int."""
    if budget is None:
        return Budget(None)
    if isinstance(budget, Budget):
        return budget
    if isinstance(budget, int) and not isinstance(budget, bool):
        if budget < 0:
            raise ValueError("budget must be >= 0")
        return Budget(budget)
    raise TypeError(f"budget must be int, Budget or None, got {type(budget)!r}")
