"""Bound-check records: one row per verified (or observed) inequality.

Asserted bounds are explicit inequalities that must hold; their pass flag is
margin >= -1e-9 in log space.  Recorded bounds have an unknown constant in
front, so a row merely captures the ratio; pass means "finite and recorded".
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field

LOG_SLACK = 1e-9

# Bound ids whose inequality is explicit (no hidden constant).  Everything
# else is ratio-only.
ASSERTED_BOUNDS = frozenset(
    {
        "corollary1",
        "eq4.1",
        "eq4.2",
        "thm1a",
        "thm1b",
        "thm2a",
        "thm2b",
        "c2",
        "s_minus",
        "s_plus",
        "thm4_split_a",
        "thm4_split_b",
    }
)


@dataclass(frozen=True)
class BoundCheckRecord:
    bound_id: str
    n: int
    lhs: int
    log_rhs: float
    margin: float
    passed: bool
    params: tuple[tuple[str, object], ...] = field(default=())

    @property
    def asserted(self) -> bool:
        return self.bound_id in ASSERTED_BOUNDS


def make_record(
    bound_id: str, n: int, lhs: int, log_rhs: float, **params: object
) -> BoundCheckRecord:
    """Build a record; pass semantics depend on whether the bound is asserted."""
    if lhs > 0:
        margin = log_rhs - math.log(lhs)
    else:
        margin = math.inf
    if bound_id in ASSERTED_BOUNDS:
        passed = margin >= -LOG_SLACK
    else:
        # ratio-only record: anything with a usable rhs counts as recorded
        passed = not (lhs > 0 and log_rhs == -math.inf)
    return BoundCheckRecord(
        bound_id, n, lhs, log_rhs, margin, passed, tuple(sorted(params.items()))
    )
