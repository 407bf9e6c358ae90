"""Exception hierarchy shared by all valfield modules."""


class ValfieldError(Exception):
    """Base class for all errors raised by this package."""


class RankMismatchError(ValfieldError):
    """Mixing rank-1 and rank-2 values in one operation."""


class DescriptorMismatchError(ValfieldError):
    """Operands belong to different fields or rings."""


class IndeterminateValuationError(ValfieldError):
    """An operation needed an exact valuation but only a lower bound is known."""


class PrecisionError(ValfieldError):
    """Working precision is insufficient and cannot be raised further."""


class BudgetExceededError(ValfieldError):
    """An enumeration would exceed the configured budget."""


DEFAULT_BUDGET = 10**7


def check_budget(count: int, budget: int) -> None:
    """Refuse a count past the budget, by its bit length past 4300 digits."""
    if count > budget:
        text = str(count) if count.bit_length() < 14000 else f"a {count.bit_length()}-bit number of"
        raise BudgetExceededError(f"{text} candidates or matrix entries exceed budget {budget}")


def check_power(base: int, exponent: int, spent: int, budget: int) -> int:
    """spent + base ** exponent (base >= 2) charged, a power past the budget refused unbuilt."""
    if exponent > budget.bit_length() or spent + base**exponent > budget:
        raise BudgetExceededError(f"{spent} + {base}^{exponent} candidates exceed budget {budget}")
    return spent + base**exponent


class CertificationError(ValfieldError):
    """A required property (e.g. irreducibility) cannot be certified."""


class ParseError(ValfieldError):
    """Malformed text input; carries the offending position."""

    def __init__(self, message, position=None):
        if position is not None:
            message = f"{message} (at position {position})"
        super().__init__(message)
        self.position = position
