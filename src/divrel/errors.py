"""Exception types shared by all divrel modules, and how their text names a number."""

import decimal


class DomainError(ValueError):
    """An argument violates an operation's precondition."""


class ResourceLimitError(RuntimeError):
    """A kernel's work would pass its budget, a module constant beside it."""


def _num(x: object) -> object:
    """x for a message: an int through Decimal, since str() refuses one past
    4300 digits; anything else as it is."""
    return decimal.Decimal(x) if type(x) is int else x
