"""Finite divisor mappings with bounded coordinate multiplicity.

A map table holds an explicit partial map g from ordered j-tuples of
pairwise coprime divisors of n to divisors of n, with g coprime to every
argument.  The regularity constant k of such a map is the largest number of
ways one coordinate can be varied (with everything else fixed) while hitting
a fixed value of g, or a fixed value of z*g; the strong constant additionally
bounds two-coordinate collisions of (g, z1*z2).
"""

from __future__ import annotations

import functools
import itertools
import json
import math
import sys
import types
from collections import defaultdict
from dataclasses import dataclass, field
from typing import Mapping

from . import factorcore
from .errors import DomainError, ResourceLimitError, _num
from .factorcore import DivisorContext, context_of
from .records import BOUNDS, DELTA2, BoundCheckRecord, BoundSpec, _build_record, applicable_spec, bound


@dataclass(frozen=True)
class MapTable:
    """Explicit j-ary divisor map: entries maps each domain tuple to g(tuple).

    A nonempty pair table built by the numpy walk keeps (d, z, g) in
    _columns: the divisors of n as _as_array gives them, and the divisor
    indices of the coordinates (one row per entry) and of the values, in
    entry order.  Such a table meets the domain contract by construction.
    The columns take no part in equality.
    """

    n: int
    j: int
    entries: Mapping[tuple[int, ...], int]
    _columns: tuple | None = field(default=None, compare=False, repr=False)


@dataclass(frozen=True)
class RegularityReport:
    """Minimal multiplicity constants of a map table, with one witness each.

    k1/k2/k3 are exact maxima over the finite table; a witness is the
    (coordinate(s), fixed values, target(s), solutions) tuple realizing the
    maximum, so the table provably fails the respective condition at k-1.
    """

    k1: int
    k2: int
    k3: int | None
    k: int
    k_strong: int
    witness1: tuple | None = None
    witness2: tuple | None = None
    witness3: tuple | None = None


def map_violations(table: MapTable) -> list[str]:
    """Reasons the table breaks the domain contract; empty when clean.

    A table with columns is clean by construction; any other table is
    checked, and described, entry by entry.
    """
    if table._columns is not None:
        return []
    problems = []
    n = table.n
    for tup, val in table.entries.items():
        if len(tup) != table.j:
            problems.append(f"tuple {_num(tup)} has arity {len(tup)}, expected {_num(table.j)}")
            continue
        for d in tup:
            if d < 1 or n % d != 0:
                problems.append(f"coordinate {_num(d)} of {_num(tup)} does not divide {_num(n)}")
        if val < 1 or n % val != 0:
            problems.append(f"value {_num(val)} at {_num(tup)} does not divide {_num(n)}")
        if any(math.gcd(a, b) != 1 for a, b in itertools.combinations(tup, 2)):
            problems.append(f"coordinates of {_num(tup)} are not pairwise coprime")
        if math.gcd(val, math.prod(tup)) != 1:
            problems.append(f"value {_num(val)} shares a factor with {_num(tup)}")
    return problems


def _collisions(tup: tuple[int, ...], val: int) -> tuple[list, list, list]:
    """The (key, solution) pairs of the entry tup -> val under conditions 1
    (z_i varies at fixed g), 2 (at fixed z_i * g) and 3 (z_i1, z_i2 vary at
    fixed g and z_i1 * z_i2); a constant is the most solutions of one key."""
    one, two, three = [], [], []
    for i, z in enumerate(tup):
        rest = tup[:i] + tup[i + 1 :]
        one.append(((i, rest, val), z))
        two.append(((i, rest, z * val), z))
        for i2 in range(i + 1, len(tup)):  # rest holds tup[i2] at i2 - 1
            key = (i, i2, rest[: i2 - 1] + rest[i2:], val, z * tup[i2])
            three.append((key, (z, tup[i2])))
    return one, two, three


def _max_with_witness(buckets: dict) -> tuple[int, tuple | None]:
    """The largest bucket size and (*key, solutions) of the smallest key
    reaching it, found in one pass; the solutions ascend.

    The entries of one bucket differ only in the coordinates that vary, so
    ascending solutions list them in the order of their sorted tuples.
    """
    best, best_key = 0, None
    for key, sols in buckets.items():
        size = len(sols)
        if size >= best and (size > best or key < best_key):
            best, best_key = size, key
    if best_key is None:
        return 0, None
    return best, (*best_key, tuple(sorted(buckets[best_key])))


def check_regularity(table: MapTable) -> RegularityReport:
    """Exact minimal k for each condition by counting collisions in the
    table; its domain contract is left to map_violations.

    A table with columns is counted on its divisor indices; any other table
    is counted in dicts of keys.  Both give the same report.
    """
    if table._columns is not None:
        return _index_regularity(*table._columns)
    b1: dict = defaultdict(list)
    b2: dict = defaultdict(list)
    b3: dict = defaultdict(list)
    for tup, val in table.entries.items():
        one, two, three = _collisions(tup, val)
        for key, sol in one:
            b1[key].append(sol)
        for key, sol in two:
            b2[key].append(sol)
        for key, sol in three:
            b3[key].append(sol)
    (k1, w1), (k2, w2), (k3, w3) = map(_max_with_witness, (b1, b2, b3))
    if table.j < 2:
        k3, w3 = None, None
    k = max(k1, k2)
    return RegularityReport(k1, k2, k3, k, max(k, k3 or 0), w1, w2, w3)


def _run_starts(x: np.ndarray) -> np.ndarray:
    """Index of the first entry of each run of equal values in a non-empty
    x; on a sorted x, one run per distinct value, ascending."""
    import numpy as np
    return np.flatnonzero(np.concatenate(([True], x[1:] != x[:-1])))


def _longest_run(keys: np.ndarray, sols: np.ndarray, d: np.ndarray) -> tuple[int, int, list]:
    """The size of the largest group of equal keys, the smallest key of
    that size, and d at that key's solutions, ascending; the last axis of
    sols runs along keys."""
    import numpy as np
    ordered = np.sort(keys)
    first = _run_starts(ordered)
    lengths = np.diff(first, append=len(ordered))
    best = int(lengths.argmax())  # the first longest run: the smallest key
    key = int(ordered[first[best]])
    return int(lengths[best]), key, sorted(d[sols[..., keys == key]].T.tolist())


def _index_regularity(d: np.ndarray, z: np.ndarray, g: np.ndarray) -> RegularityReport:
    """check_regularity's report for a pair table, counted on its columns.

    A key of condition 1 or 2, (i, rest, target), becomes the int
    (i*tau + rest)*tau + target of divisor indices, rest the other
    coordinate's; one of condition 3, (0, 1, (), g, z1*z2), becomes
    g*tau + (z1*z2).  In a clean entry z*g and z1*z2 are products of
    coprime divisors, so divisors of n, at most n: each is found among the
    divisors, and int64 never wraps.  Divisors ascend, so these ints sort
    as the keys do, and the first longest run of each is _max_with_witness's.
    """
    import numpy as np
    tau = len(d)
    sol = z.T.ravel()  # coordinate 0 of every entry, then coordinate 1
    lead = np.repeat(np.arange(2), len(g)) * tau + z[:, ::-1].T.ravel()
    target = np.tile(g, 2)
    prod = np.searchsorted(d, d[sol] * d[target])
    pair = np.searchsorted(d, d[z[:, 0]] * d[z[:, 1]])

    def witness(key: int, sols: list) -> tuple:
        return (key // tau**2, (int(d[key // tau % tau]),), int(d[key % tau]), tuple(sols))

    k1, key1, sols1 = _longest_run(lead * tau + target, sol, d)
    k2, key2, sols2 = _longest_run(lead * tau + prod, sol, d)
    k3, key3, pairs = _longest_run(g * tau + pair, z.T, d)
    w1, w2 = witness(key1, sols1), witness(key2, sols2)
    w3 = (0, 1, (), int(d[key3 // tau]), int(d[key3 % tau]), tuple(map(tuple, pairs)))
    k = max(k1, k2)
    return RegularityReport(k1, k2, k3, k, max(k, k3), w1, w2, w3)


def f_value(table: MapTable) -> int:
    """Domain size |U_g|."""
    return len(table.entries)


def builtin_sum_map(n: int, ctx: DivisorContext | None = None) -> MapTable:
    """g(d1, d2) = d1 + d2 on coprime pairs whose sum divides n coprimely."""
    return _pair_table(context_of(n, ctx), "sum")


def builtin_successor_map(n: int, ctx: DivisorContext | None = None) -> MapTable:
    """g(t_i) = t_{i+1} on divisors coprime to their successor."""
    divs = context_of(n, ctx).divs
    return MapTable(n, 1, {(a,): b for a, b in zip(divs, divs[1:]) if math.gcd(a, b) == 1})


def builtin_midpoint_map(
    n: int, variant: str = "exact", ctx: DivisorContext | None = None
) -> MapTable:
    """g(t_i, t_j) = t at the (floor) midpoint index, where coprimality allows.

    variant "floor" uses index floor((i+j)/2) for every coprime pair;
    variant "exact" keeps its entries with even i+j (value index (i+j)/2).
    """
    if variant not in ("exact", "floor"):
        raise DomainError(f"midpoint variant must be 'exact' or 'floor', got {variant!r}")
    return _pair_table(context_of(n, ctx), f"midpoint-{variant}")


# The pair maps are built by the numpy walk from this tau(n) on; below it
# the numpy walk's fixed cost, about 0.2 ms, loses.  On a 2-core x86 box
# (best of 300) the row walks of the sum and midpoint-floor maps took 0.11
# and 0.25 ms at tau 128 (510510) against 0.19 and 0.22 ms for the numpy
# walks, and 0.22 and 0.40 ms at tau 192 (332640) against 0.21 and 0.22 ms.
# midpoint-exact walks nothing: it filters the midpoint-floor table.
_NUMPY_MIN_TAU = 192
# A candidate block of the numpy walk holds at most about this many pairs.
_BLOCK = 1 << 14
# Both walks are charged the pairs they test against factorcore._MAX_PAIRS.
_WALK_WORK = "{} map of {}: pairs tested"
# The divisors of n, their pair sums (in [2, 2n]) and every other value the
# numpy kernels form from them (shifts in (-n, 2n), lookups below 3n) fit
# int64 while 2n is below this limit; from it on the kernels run the same
# code on exact Python ints (object dtype).
_INT64_SUMS = 2**62


def _as_array(divs: tuple[int, ...]) -> np.ndarray:
    """divs as int64 while 2n < _INT64_SUMS, else as exact Python ints."""
    import numpy as np
    return np.array(divs, dtype=np.int64 if 2 * divs[-1] < _INT64_SUMS else object)


def _divisor_index(ctx: DivisorContext) -> tuple[np.ndarray, np.ndarray]:
    """The divisors of ctx.n, as _as_array gives them, and each one's bitmask
    of n's primes, built once per context.  Two divisors are coprime when
    their masks do not meet; the divisors budget keeps omega(n) <= 20, so
    the masks fit int32."""
    import numpy as np

    def compute() -> tuple[np.ndarray, np.ndarray]:
        d = _as_array(ctx.divs)
        masks = np.zeros(len(d), dtype=np.int32)
        for bit, (p, _) in enumerate(ctx.factorization.parts):
            masks |= (d % p == 0).astype(np.int32) << bit
        return d, masks

    return ctx.memo("divisor_index", compute)


def _pair_table(ctx: DivisorContext, kind: str) -> MapTable:
    """The pair map kind of ctx.n, from the walk that suits tau.  Along a
    row a*b*val never shrinks, so midpoint-exact is the midpoint-floor
    table's entries (and columns) with an even divisor-index sum, in order."""
    if kind == "midpoint-exact":
        floor = builtin_table(ctx, "midpoint-floor")
        if floor._columns is None:  # the row walk's table: no numpy
            index = {d: i for i, d in enumerate(ctx.divs)}
            even = {(a, b): v for (a, b), v in floor.entries.items() if (index[a] + index[b]) % 2 == 0}
            return MapTable(ctx.n, 2, even)
        d, z, g = floor._columns
        even = z.sum(axis=1) % 2 == 0
        entries = dict(itertools.compress(floor.entries.items(), even.tolist()))
        return MapTable(ctx.n, 2, types.MappingProxyType(entries), (d, z[even], g[even]))
    if ctx.stats.tau >= _NUMPY_MIN_TAU:
        return _numpy_walk(ctx, kind)
    return MapTable(ctx.n, 2, _row_walk(ctx.n, ctx.divs, kind))


def _row_walk(n: int, divs: tuple[int, ...], kind: str) -> dict[tuple[int, int], int]:
    """The entries of the pair map kind, walked row by row in Python ints.

    An entry's a, b, val are pairwise coprime, so a*b*val | n and a row ends
    at its first pair with a*b*val > n.  gcd(a + b, a) = gcd(b, a), so a
    coprime pair's sum is coprime to both: the sum map needs only val | n.
    """
    is_sum = kind == "sum"
    entries, tested = {}, 0
    for i, a in enumerate(divs):
        for j in range(i, len(divs)):
            b = divs[j]
            val = a + b if is_sum else divs[(i + j) // 2]
            if a * b * val > n:
                break
            if math.gcd(a, b) == 1 and (n % val == 0 if is_sum else math.gcd(val, a * b) == 1):
                entries[a, b] = entries[b, a] = val
        tested += j - i + 1  # the pairs of row i, the one that broke it too
        if tested > factorcore._MAX_PAIRS:  # a check_budget call per row slows small n
            factorcore.check_budget(_WALK_WORK, tested, factorcore._MAX_PAIRS, kind, n)
    return entries


def _numpy_rows(n: int, d: np.ndarray, kind: str) -> tuple[np.ndarray, np.ndarray]:
    """Per row i of the walk of the pair map kind over the divisors d of n
    (as _as_array gives them), the pairs it tests and the pairs before the
    one that ends it, the candidates.

    Pair k of row i is (i, i + k); it ends the row when
    val > (n // a) // b, the same as a*b*val > n without overflow.  That
    test is monotone along a row, so one bisection over all rows at once
    finds each row's end.  Every value is at least a, so the end comes at
    the latest at the first b > n // a^2.
    """
    import numpy as np
    tau = len(d)
    rows = np.arange(tau)
    width = tau - rows
    quota = n // d
    # per row, the first k whose pair ends it lies in [lo, hi], hi = width
    # standing for none; hi starts at the first k with b > n // a^2
    lo = np.zeros(tau, dtype=np.int64)
    hi = np.clip(np.searchsorted(d, quota // d, side="right") - rows, 0, width)
    while (open_ := np.flatnonzero(lo < hi)).size:
        mid = (lo[open_] + hi[open_]) // 2
        j = open_ + mid
        val = d[open_] + d[j] if kind == "sum" else d[(open_ + j) // 2]
        ends = val > quota[open_] // d[j]
        hi[open_[ends]] = mid[ends]
        lo[open_[~ends]] = mid[~ends] + 1
    return np.minimum(lo + 1, width), lo


def _numpy_walk(ctx: DivisorContext, kind: str) -> MapTable:
    """The row walk's table, its entries in its order, from numpy blocks of
    rows; a nonempty table keeps its columns.

    The walk is charged the row walk's tested pairs, and refused with its
    count and text, before any candidate is listed.
    """
    import numpy as np
    n, tau = ctx.n, ctx.stats.tau
    d, masks = _divisor_index(ctx)
    tested, candidates = _numpy_rows(n, d, kind)
    charged = np.cumsum(tested)
    over = int(np.searchsorted(charged, factorcore._MAX_PAIRS, side="right"))
    if over < tau:
        factorcore.check_budget(_WALK_WORK, int(charged[over]), factorcore._MAX_PAIRS, kind, n)
    listed = np.cumsum(candidates)  # the candidates of rows 0..r
    blocks = []
    r0 = 0
    while r0 < tau:
        before = int(listed[r0 - 1]) if r0 else 0
        r1 = max(int(np.searchsorted(listed, before + _BLOCK, side="right")), r0 + 1)
        rows, counts = np.arange(r0, r1), candidates[r0:r1]
        i = np.repeat(rows, counts)
        # row r's candidates j = r + k, k < counts[r], for each row in turn
        offsets = listed[r0:r1] - counts - before  # of each row's first candidate
        j = np.arange(len(i)) + np.repeat(rows - offsets, counts)
        mi, mj = masks[i], masks[j]
        coprime = np.flatnonzero((mi & mj) == 0)
        i, j, mi, mj = i[coprime], j[coprime], mi[coprime], mj[coprime]
        if kind == "sum":
            val = d[i] + d[j]
            hit = n % val == 0
            val = np.searchsorted(d, val[hit])  # the value's index, on the hits only
        else:
            val = (i + j) // 2
            hit = (masks[val] & (mi | mj)) == 0
            val = val[hit]
        blocks.append((i[hit], j[hit], val))
        r0 = r1
    i, j, g = (np.concatenate(col) for col in zip(*blocks))
    # (i, j) then (j, i), as the row walk stores them; the only coprime pair
    # on the diagonal, (1, 1), is the walk's first candidate and is kept once
    z = np.column_stack((i, j, j, i)).reshape(-1, 2)
    g = np.repeat(g, 2)
    if len(i) and i[0] == j[0]:
        z, g = z[1:], g[1:]
    # read-only, so the table cannot drift from the columns it is counted on
    entries = types.MappingProxyType(dict(zip(zip(*d[z].T.tolist()), d[g].tolist())))
    return MapTable(n, 2, entries, (d, z, g) if len(g) else None)


BUILTIN_KINDS = ("sum", "successor", "midpoint-exact", "midpoint-floor")


def build_builtin(kind: str, n: int, ctx: DivisorContext | None = None) -> MapTable:
    if kind == "successor":
        return builtin_successor_map(n, ctx)
    if kind in ("sum", "midpoint-exact", "midpoint-floor"):
        return _pair_table(context_of(n, ctx), kind)
    raise DomainError(f"unknown builtin map kind: {kind!r}")


def builtin_table(ctx: DivisorContext, kind: str) -> MapTable:
    """The built-in map of ctx.n of the given kind, built once per context."""
    return ctx.memo(("builtin", kind), lambda: build_builtin(kind, ctx.n, ctx=ctx))


def builtin_maps(ctx: DivisorContext) -> tuple[tuple[str, MapTable, RegularityReport], ...]:
    """(kind, table, report) for every built-in map of ctx.n, built and
    counted once per context; the tables are valid by construction."""

    def compute() -> tuple:
        tables = [(kind, builtin_table(ctx, kind)) for kind in BUILTIN_KINDS]
        return tuple((kind, table, check_regularity(table)) for kind, table in tables)

    return ctx.memo("builtin_maps", compute)


def _map_row(
    bound_id: str,
    spec: BoundSpec,
    ctx: DivisorContext,
    table: MapTable,
    reg: RegularityReport,
    *tail: tuple,
) -> BoundCheckRecord:
    """bound_id's row for a table in its domain; the tail params go last."""
    try:
        log_rhs, params = spec.evaluate(ctx, table, reg)
    except OverflowError:  # an arity past float range, read from a table file
        raise DomainError(f"{bound_id}: j = {_num(table.j)} is too large for float64") from None
    return _build_record(
        bound_id, table.n, f_value(table), log_rhs, (("j", table.j), *params, *tail)
    )


def bound_check(
    table: MapTable,
    bound_id: str,
    reg: RegularityReport | None = None,
    *,
    ctx: DivisorContext | None = None,
) -> BoundCheckRecord:
    """Compare |U_g| against one named domain-size bound at the table's own k.

    A table that breaks the domain contract (see map_violations) is refused.
    ctx, a DivisorContext of table.n, supplies the factorization, its
    statistics and kappa without recomputing them.
    """
    own = context_of(table.n, ctx)
    spec = applicable_spec(bound_id, "map", own, table.j)
    if problems := map_violations(table):
        raise DomainError(f"{bound_id}: {problems[0]}")
    return _map_row(bound_id, spec, own, table, reg or check_regularity(table))


def builtin_rows(ctx: DivisorContext, bound_id: str) -> list[BoundCheckRecord]:
    """bound_id's rows over the built-in tables of ctx.n of the arity it
    takes, in BUILTIN_KINDS order: each is bound_check's row for the table
    with map=kind added.  The caller has checked that bound_id applies to
    ctx.n, and each table was counted once for all map bounds."""
    spec = BOUNDS[bound_id]
    return [
        _map_row(bound_id, spec, ctx, table, reg, ("map", kind))
        for kind, table, reg in builtin_maps(ctx)
        if spec.arity is None or spec.arity == table.j
    ]


@functools.lru_cache(maxsize=16)
def _delta_j(j: int) -> float:
    """analytic.delta_j, imported on the first thm1a row, so that building a
    map loads no analytic; kept per j, as an import costs a thm1a row 1 us."""
    from .analytic import delta_j
    return delta_j(j)


def _log_or_ninf(x: float) -> float:
    return math.log(x) if x > 0 else -math.inf


@bound("thm1a", "map", asserted=True, sweepable=True)
def _thm1a(ctx: DivisorContext, table: MapTable, reg: RegularityReport) -> tuple:
    log_rhs = _log_or_ninf(reg.k) + (1 - _delta_j(table.j)) * math.log(ctx.kappa(table.j))
    return log_rhs, (("k", reg.k),)


@bound("thm1b", "map", asserted=True, arity=2, sweepable=True)
def _thm1b(ctx: DivisorContext, table: MapTable, reg: RegularityReport) -> tuple:
    return _log_or_ninf(reg.k) + (1 - DELTA2) * math.log(ctx.kappa(table.j)), (("k", reg.k),)


@bound("thm2a", "map", asserted=True, squarefree_only=True, sweepable=True)
def _thm2a(ctx: DivisorContext, table: MapTable, reg: RegularityReport) -> tuple:
    j, ks = table.j, reg.k_strong
    log_rhs = _log_or_ninf(ks) + ctx.stats.omega * math.log((j + 2) / 2 ** (2 / (j + 2)))
    return log_rhs, (("k_strong", ks),)


@bound("thm2b", "map", asserted=True, sweepable=True)
def _thm2b(ctx: DivisorContext, table: MapTable, reg: RegularityReport) -> tuple:
    j = table.j
    log_prod = ctx.memo(
        ("thm2b", j),
        lambda: sum(math.log((j + 1) * v ** (j / (j + 1))) for _, v in ctx.factorization.parts),
    )
    return _log_or_ninf(reg.k) + log_prod, (("k", reg.k),)


@bound("c2", "map", asserted=True, sweepable=True)
def _c2(ctx: DivisorContext, table: MapTable, reg: RegularityReport) -> tuple:
    j, k = table.j, reg.k
    log_rhs = math.log(j * k + 1) + math.log(ctx.kappa(j)) - math.log(j * ctx.stats.v_max + 1)
    return log_rhs, (("k", k),)


@bound("corollary2", "map", asserted=False, min_n=2, sweepable=True)
def _corollary2(ctx: DivisorContext, table: MapTable, reg: RegularityReport) -> tuple:
    log_rhs = _log_or_ninf(reg.k) + math.log(ctx.kappa(table.j)) - math.log(ctx.stats.big_omega)
    return log_rhs, (("k", reg.k),)


# exact_E is charged j^2 per (tuple, value) candidate, kappa_{j+1}(n) of them,
# before it lists a divisor or a tuple; the charge also bounds the search's
# recursion depth, kappa_j(n) + 1.  The search stops past _EXACT_E_MAX_NODES.
_EXACT_E_MAX_WORK = 1000
_EXACT_E_MAX_NODES = 10**6


def exact_E(n: int, j: int, k: int) -> int:
    """Exact maximum domain size over all k-regular arity-j maps on D_n.

    Depth-first search over (tuple, value) assignments in a fixed order,
    counting how often each key of conditions 1 and 2 is hit; branches die
    as soon as a count would pass k or the remaining tuples cannot beat the
    incumbent.  Only feasible for tiny n, hence the two budgets above.
    """
    if j < 1 or k < 1:
        raise DomainError(f"exact_E: j and k must be >= 1, got j={_num(j)}, k={_num(k)}")
    f = factorcore.factor(n)
    work = j * j * factorcore.kappa(f, j + 1)
    factorcore.check_budget("exact_E: {}^2 * kappa_{}({})", work, _EXACT_E_MAX_WORK, j, j + 1, n)
    divs = factorcore.divisors(f)
    # per candidate tuple, the condition-1 and -2 keys of each allowed value,
    # tagged by condition so that one dict counts both
    choices = [
        [[(c, key) for c, pairs in enumerate(_collisions(tup, val)[:2]) for key, _ in pairs]
         for val in divs if math.gcd(val, math.prod(tup)) == 1]
        for tup in factorcore.coprime_tuples(f, j)
    ]
    total = len(choices)
    hits: dict = defaultdict(int)
    best = 0
    nodes = 0

    def dfs(idx: int, size: int) -> None:
        nonlocal best, nodes
        nodes += 1
        if nodes > _EXACT_E_MAX_NODES:
            raise ResourceLimitError(f"exact_E: search passed {_EXACT_E_MAX_NODES} nodes")
        if size + (total - idx) <= best:
            return
        if idx == total:
            best = size
            return
        for keys in choices[idx]:
            if any(hits[key] >= k for key in keys):
                continue
            for key in keys:
                hits[key] += 1
            dfs(idx + 1, size + 1)
            for key in keys:
                hits[key] -= 1
        dfs(idx + 1, size)

    dfs(0, 0)
    return best


def map_to_json(table: MapTable) -> str:
    """Serialize as {"n", "j", "entries": [[d1..dj, value], ...]}, sorted.

    A table holding an int past Python's digit limit is refused, as
    map_from_json could not read it back.
    """
    rows = [[*tup, table.entries[tup]] for tup in sorted(table.entries)]
    try:
        return json.dumps({"n": table.n, "j": table.j, "entries": rows})
    except ValueError:  # str() refuses the int
        limit = sys.get_int_max_str_digits()
        raise DomainError(f"map table of n = {_num(table.n)}: an int past {limit} digits") from None


def map_from_json(text: str) -> MapTable:
    try:
        obj = json.loads(text)
        n = obj["n"]
        j = obj["j"]
        raw = obj["entries"]
    # JSONDecodeError is a ValueError, and so is an int past 4300 digits
    except (ValueError, RecursionError, KeyError, TypeError) as exc:
        raise DomainError(f"bad map table JSON: {exc}") from exc
    # type() rather than isinstance: JSON true/false are bools, a subclass of int
    if type(n) is not int or type(j) is not int or n < 1 or j < 1:
        raise DomainError("bad map table JSON: n and j must be positive integers")
    if not isinstance(raw, list):
        raise DomainError(f"bad map table JSON: entries must be a list, got {raw!r}")
    entries = {}
    for row in raw:
        if (
            not isinstance(row, list)
            or len(row) != j + 1
            or not all(type(x) is int for x in row)
        ):
            raise DomainError(f"bad map table row: {row!r}")
        key = tuple(row[:j])
        if key in entries:
            raise DomainError(f"bad map table: two rows for {key}")
        entries[key] = row[j]
    return MapTable(n, j, entries)
