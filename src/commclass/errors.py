"""Shared exception types and the work meter behind --budget."""

from __future__ import annotations

DEFAULT_BUDGET = 10_000_000


class CommClassError(Exception):
    """Base class for all library errors."""


class ValidationError(CommClassError, ValueError):
    """Invalid input data or a violated construction precondition."""


class ParseError(ValidationError):
    """Malformed input file or document."""


class BudgetExceededError(CommClassError, RuntimeError):
    """The work charged to a Budget went past its limit."""


class MathInvariantError(CommClassError, RuntimeError):
    """A mathematical invariant that should hold by construction failed."""


class TruncationError(ValidationError):
    """A simplicial truncation is too shallow for the requested degree."""


class Budget:
    """One meter of work against a limit: each stage charges the work it is
    about to do, and the first charge past the limit raises BudgetExceededError."""

    __slots__ = ("limit", "spent")

    def __init__(self, limit: int = DEFAULT_BUDGET):
        self.limit, self.spent = limit, 0

    def charge(self, n: int, what: str) -> None:
        self.spent += n
        if self.spent > self.limit:
            raise BudgetExceededError(
                f"{what}: charging {n} brings the total to {self.spent}, "
                f"which exceeds budget {self.limit}"
            )


def meter(budget) -> Budget:
    """budget itself when it is a Budget, else a fresh Budget of that limit."""
    return budget if isinstance(budget, Budget) else Budget(budget)
