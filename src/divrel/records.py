"""Bound-check records (one row per verified or observed inequality) and the
registry of the named bounds that produce them.

Asserted bounds are explicit inequalities that must hold; their pass flag is
margin >= -1e-9 in log space.  Recorded bounds have an unknown constant in
front, so a row merely captures the ratio; pass means "finite and recorded".
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Any, Callable, NamedTuple

from .errors import DomainError, _num

LOG_SLACK = 1e-9

# Best known exponent saving for arity-2 maps (see analytic, which certifies
# it).  It is defined here so that the bounds that read it load no analytic.
DELTA2 = 0.045072


@dataclass(frozen=True)
class BoundSpec:
    """One named bound, declared beside its evaluator.

    family is "relation" (evaluate(ctx, **params) -> (lhs, log_rhs, params)
    rows), "map" (evaluate(ctx, table, reg) -> (log_rhs, params), one row per
    table, params a sorted tuple of (name, value) pairs whose names sort
    between "j" and "map") or "analytic" (rows come in pairs from analytic;
    no evaluate); the dispatchers make the records.  Its domain is n
    squarefree, n >= min_n and, for a map bound, tables of this arity.
    """

    family: str
    asserted: bool
    squarefree_only: bool = False
    min_n: int = 1
    arity: int | None = None
    sweepable: bool = False
    evaluate: Callable[..., Any] | None = None

    def violation(self, ctx: Any, arity: int | None = None) -> str | None:
        """Why ctx's n (or a table of this arity) is outside the domain, or
        None.  The sweep skips on it; the public functions raise it."""
        if self.squarefree_only and ctx.stats.v_max > 1:
            return f"n = {_num(ctx.n)} is not squarefree"
        if ctx.n < self.min_n:
            return f"requires n >= {self.min_n}"
        if arity is not None and self.arity not in (None, arity):
            return f"arity-{self.arity} tables only"
        return None


# bound id -> spec; filled by relations, regmaps and analytic at import, so
# it is complete only once they are: read it in full through registry().
BOUNDS: dict[str, BoundSpec] = {}


def registry() -> dict[str, BoundSpec]:
    """BOUNDS with every bound registered: the evaluator modules, which
    register their bounds as they are imported, are imported on first use."""
    from . import analytic, regmaps, relations  # noqa: F401
    return BOUNDS


def bound(bound_id: str, family: str, **rules: Any) -> Callable:
    """Decorator registering the decorated function as bound_id's evaluator."""

    def register(evaluate: Callable) -> Callable:
        BOUNDS[bound_id] = BoundSpec(family, evaluate=evaluate, **rules)
        return evaluate

    return register


def applicable_spec(bound_id: str, family: str, ctx: Any, arity: int | None = None) -> BoundSpec:
    """bound_id's spec; DomainError unless it is of this family and applies."""
    spec = BOUNDS.get(bound_id)
    if spec is None or spec.family != family:
        raise DomainError(f"unknown bound id: {bound_id}")
    reason = spec.violation(ctx, arity)
    if reason:
        raise DomainError(f"{bound_id}: {reason}")
    return spec


class BoundCheckRecord(NamedTuple):
    """One report row.  A named tuple: immutable, equal and hashed by value,
    and cheap to build, since a sweep builds one per row."""

    bound_id: str
    n: int
    lhs: int
    log_rhs: float
    margin: float
    passed: bool
    params: tuple[tuple[str, object], ...] = ()

    @property
    def asserted(self) -> bool:
        return (BOUNDS.get(self.bound_id) or registry()[self.bound_id]).asserted


def make_record(
    bound_id: str, n: int, lhs: int, log_rhs: float, **params: object
) -> BoundCheckRecord:
    """Build a record; pass semantics depend on whether the bound is asserted."""
    return _build_record(bound_id, n, lhs, log_rhs, tuple(sorted(params.items())))


def _build_record(
    bound_id: str, n: int, lhs: int, log_rhs: float, params: tuple[tuple[str, object], ...]
) -> BoundCheckRecord:
    """The margin and pass rule, for every record; params are sorted by name."""
    log_lhs = math.log(lhs) if lhs > 0 else None
    margin = math.inf if log_lhs is None else log_rhs - log_lhs
    # make_record's caller may name a bound whose module is not loaded yet
    if (BOUNDS.get(bound_id) or registry()[bound_id]).asserted:
        passed = margin >= -LOG_SLACK
    else:
        # ratio-only record: anything with a usable rhs counts as recorded
        passed = log_lhs is None or log_rhs != -math.inf
    # _make skips the keyword-handling __new__, which about doubles the cost
    return BoundCheckRecord._make((bound_id, n, lhs, log_rhs, margin, passed, params))
