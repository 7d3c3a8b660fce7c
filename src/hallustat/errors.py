"""Structured errors carrying the CLI exit code they map to."""


class WorkbenchError(Exception):
    """Base class; exit_code is what the CLI process returns on this failure."""

    exit_code = 1


class ConfigError(WorkbenchError):
    """Malformed or missing configuration."""

    exit_code = 2


class DomainError(WorkbenchError, ValueError):
    """Arguments outside a formula's or type's domain."""

    exit_code = 3


class DominationError(WorkbenchError):
    """A required stochastic-domination condition failed or is undecidable."""

    exit_code = 4


class BudgetExceeded(WorkbenchError):
    """An enumeration would exceed the configured budget."""

    exit_code = 5

    def __init__(self, message, required=None, budget=None):
        super().__init__(message)
        self.required = required
        self.budget = budget


def check_budget(message, budget: int, low_bits: int, work) -> None:
    """Raise BudgetExceeded with message() when work() exceeds the budget.

    message() runs only then: Python cannot print an int of over 4300 digits.
    low_bits is a cheap lower bound on the bit length of the work. Past
    max(budget.bit_length(), 2^16) bits the request is rejected without
    calling work(), whose exact integer could take seconds to form, and
    `required` is then None.
    """
    if low_bits > max(budget.bit_length(), 2**16):
        raise BudgetExceeded(message(), required=None, budget=budget)
    required = work()
    if required > budget:
        raise BudgetExceeded(message(), required=required, budget=budget)
