"""Structured errors carrying the CLI exit code they map to."""

DRAW_CAP = 2**23  # the most draws one object or atom trial holds (check_draw_count)


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


def check_int(value, name: str, minimum: int) -> None:
    """Raise DomainError unless value is an int (not a bool) of at least
    minimum: the check on every size, seed and stream branch a library
    entry point takes, made before it draws."""
    if isinstance(value, bool) or not isinstance(value, int):
        raise DomainError(f"{name} must be an int, got {value!r}")
    if value < minimum:
        raise DomainError(f"{name} must be >= {minimum}, got {value}")


def check_draw_count(m: int, name: str) -> None:
    """Raise DomainError, before any draw, for an m past DRAW_CAP, the most
    draws one object or atom trial holds: at about 90 bytes each at its peak
    (tracemalloc, README law; an atom trial 33), 755 MB."""
    if m > DRAW_CAP:
        raise DomainError(f"{name} must be at most {DRAW_CAP}, the most draws one trial "
                          f"holds; got {_int_text(m)}")


def _int_text(n: int) -> str:
    """n in decimal, or its bit length when n has more digits than Python's
    int-to-str limit allows."""
    try:
        return str(n)
    except ValueError:
        return f"a {n.bit_length()}-bit number"


def check_budget(template: str, numbers, budget: int, low_bits: int, work, name="budget") -> None:
    """Raise BudgetExceeded when work() exceeds the budget, an int >= 0 that
    check_int checks first under its caller's name for it; the message is
    template.format(*numbers), each number rendered by _int_text.

    low_bits is a cheap lower bound on the bit length of the work. Past
    max(budget.bit_length(), 2^16) bits the request is rejected without
    calling work(), whose exact integer could take seconds to form, and
    `required` is then None.
    """
    check_int(budget, name, 0)
    if low_bits > max(budget.bit_length(), 2**16):
        required = None
    else:
        required = work()
        if required <= budget:
            return
    message = template.format(*map(_int_text, numbers))
    raise BudgetExceeded(message, required=required, budget=budget)
