"""Shared exception types and the enumeration budget guard."""

from __future__ import annotations

DEFAULT_BUDGET = 10_000_000


class CommClassError(Exception):
    """Base class for all library errors."""


class ValidationError(CommClassError, ValueError):
    """Invalid input data or a violated construction precondition."""


class ParseError(ValidationError):
    """Malformed input file or document."""


class BudgetExceededError(CommClassError, RuntimeError):
    """An enumeration would exceed the configured tuple budget."""


class MathInvariantError(CommClassError, RuntimeError):
    """A mathematical invariant that should hold by construction failed."""


class TruncationError(ValidationError):
    """A simplicial truncation is too shallow for the requested degree."""


def check_budget(size: int, budget: int, what: str) -> None:
    """Raise BudgetExceededError when an enumeration of `size` items exceeds `budget`."""
    if size > budget:
        raise BudgetExceededError(
            f"{what}: enumeration size {size} exceeds budget {budget}"
        )


def check_power_budget(base: int, exponent: int, budget: int, what: str) -> None:
    """check_budget for base**exponent items.  The power is not formed when
    it must exceed the budget, so a huge exponent is refused at once."""
    if base > 1 and exponent > max(budget, 1).bit_length():
        raise BudgetExceededError(
            f"{what}: enumeration size {base}^{exponent} exceeds budget {budget}"
        )
    check_budget(base**exponent, budget, what)
