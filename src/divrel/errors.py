"""Exception types shared by all divrel modules."""


class DomainError(ValueError):
    """An argument violates an operation's precondition."""


class ResourceLimitError(RuntimeError):
    """A kernel's work would pass its budget, a module constant beside it."""
