"""Exception types shared by all divrel modules, and how their text names a number."""

import decimal


class DomainError(ValueError):
    """An argument violates an operation's precondition."""


class ResourceLimitError(RuntimeError):
    """A kernel's work would pass its budget, a module constant beside it."""


def _num(x: object) -> object:
    """x for a message: an int through Decimal, since str() refuses one past
    4300 digits; a tuple as Python writes it, with its ints so; anything
    else as it is."""
    if type(x) is tuple:
        items = [str(_num(v)) if type(v) is int else repr(v) for v in x]
        return f"({', '.join(items)}{',' * (len(items) == 1)})"
    return decimal.Decimal(x) if type(x) is int else x
