"""Exact counts of additive and congruence relations on the divisor set.

The divisor set D_n is the sorted tuple of all divisors of n.  Counted
objects are always ordered tuples; the identities below (energy
decomposition, residue-class second moment) only hold for ordered counts.

The additive energy, its (e, m) cells and corollary3's most frequent shift
read one pair-sum histogram per DivisorContext: the distinct sums d1 + d2
with the number of ordered pairs giving each.  A kernel whose work is at
most _NUMPY_MIN_WORK counts it in exact Python ints, as a Counter, so small
n never load numpy.  Above that, and always in energy_decomposition, it is
two numpy columns, the sums ascending, and the cells three columns (e, m,
u), which eq4.1 and eq4.2 read with reduceat and lexsort over the runs of
e, so no Python object is made per cell.  That histogram holds up to
tau(tau + 1)/2 sums at 16 bytes each (32 MB at tau 2000) and is built in
ranges of the sum, each counted by one in-place sort and its run starts,
so building it needs little beyond twice that.  Since d1 + d2 is
symmetric, the histogram is built from the triangle, each unordered pair
once, and the ordered counts are read off it.  The cells are put in (e, m)
order by one unstable sort of int64 keys e * cells + index where those fit,
in place of a stable argsort of e.  The arrays are int64 while 2n < 2^62
and hold exact Python ints (object dtype) beyond, so every count is exact
at any n.

Sum triples d1 + d2 = d3 need no pair table: they are counted in Python
ints from the primitive solutions that the built-in sum map lists (see
count_sum_triples).

Each kernel refuses work past its own budget before it allocates anything:
the pair-sum histogram (tau^2 pairs), corollary3 and residues.
"""

from __future__ import annotations

import math
from collections import Counter
from collections.abc import Iterator
from dataclasses import dataclass
from itertools import product, starmap
from operator import add, mul

from . import factorcore
from .errors import DomainError, _num
from .factorcore import DivisorContext, check_budget, context_of
from .records import BOUNDS, DELTA2, BoundCheckRecord, applicable_spec, bound, make_record
from .regmaps import _as_array, _run_starts, builtin_table

# Per-sum pair-count exponent: at most 2^(C_EXP * omega(n)) coprime pairs of
# divisors of a squarefree n share one fixed sum.
C_EXP = math.log(3) / math.log(2) - 2 / 3

# Squarefree additive-energy growth base and the derived shifted-triple base,
# sqrt(2 * ENERGY_BASE).
ENERGY_BASE = 7.8784716
SHIFTED_TRIPLE_BASE = 3.969502

# eq4.1's right-hand side is 3^(omega(n) - omega(e)) * 2^omega(e).
_LOG_3 = math.log(3)
_LOG_2_3 = math.log(2 / 3)

# omega(e)/omega(n) threshold that balances the two halves of the energy
# bound; at this split 2^((2+C_EXP) + (1-C_EXP)(1-eta)) equals ENERGY_BASE.
ENERGY_SPLIT_ETA = 0.2702949686

# No temporary array of the pair counts below holds more than about this
# many pairs, so their working memory stays a few MB at any tau.
_CHUNK = 1 << 18

# energy_decomposition orders int64 cells by one sort of the keys
# e * cells + index while (n + 1) * cells, above every key, is at most this;
# past it a stable argsort of e does, an int64 timsort about 5x slower (33
# against 6.6 ms for 407,957 cells at tau 1344 on a 2-core x86 box).
_INT64_KEYS = 2**63

# corollary3 walks tau(n) pairs (s, d3) per distinct pair sum s.  This admits
# squarefree tau 512 (4.5 * 10^7 pairs, 1.6 s on 2 cores) and refuses tau 1024
# (3.7 * 10^8 pairs, which took 24 s).
_SHIFT_MAX_PAIRS = 10**8

# A kernel counts in Python ints while its work, in the units its budget is
# charged in (tau^2 pairs; tau * sums for corollary3), is at most this, and
# in numpy above.  Warm (medians of 300 interleaved calls, 2-core x86 box),
# Python took 0.29, 0.55, 0.93, 1.06, 1.35 and 1.78x numpy's time for the
# energy at tau 6, 12, 18, 20, 24 and 28 (43 against 32 us at tau 24), and
# for every histogram bound 0.73x at squarefree tau 8 and 1.38x at 16.  Tau
# 20 to 24 stay in Python as a fresh process pays about 130 ms to import
# numpy; warm, the histogram bounds over n = 201..5700 take 0.70x their
# time all on numpy.
_NUMPY_MIN_WORK = 600

# residue_profile does tau(n) + q units of work: a count per divisor and a
# slot per class, 8 bytes each.
_RESIDUE_MAX_WORK = 10**7


@dataclass(frozen=True, eq=False)
class EnergyDecomposition:
    """Pair sums d1+d2 grouped by (e, m) with e = gcd(d1+d2, n), m = sum/e.

    e, m and u are aligned read-only numpy columns, one entry per cell, in
    (e, m) order; u is the number of ordered pairs in the cell.  e and m
    have the histogram's dtype: int64 while 2n < 2^62, else object dtype
    holding exact Python ints.  total_energy = sum of u^2 = additive energy
    of D_n.
    """

    n: int
    e: np.ndarray
    m: np.ndarray
    u: np.ndarray
    total_energy: int

    @property
    def rows(self) -> tuple[tuple[int, int, int], ...]:
        """The cells as (e, m, u) tuples of Python ints, built on each read."""
        return tuple(zip(self.e.tolist(), self.m.tolist(), self.u.tolist()))


@dataclass(frozen=True)
class ResidueProfile:
    """Divisor counts per residue class t = 1..q and their second moment."""

    n: int
    q: int
    counts: tuple[int, ...]
    h_value: int
    eta: float


def _sum_ranges(
    x: np.ndarray, y: np.ndarray, first: np.ndarray
) -> Iterator[tuple[np.ndarray, np.ndarray]]:
    """Every sum x[j] + y[i] over the pairs (i, j) with j >= first[i] (each
    first[i] < len(x)), x ascending, in ascending ranges of the sum; no sum
    is split between two ranges.

    Yields (sums, j) per range, unordered.  A range holds at most _CHUNK
    pairs, or only the pairs of one sum if that sum alone has more.
    """
    import numpy as np
    # lo: the smallest sum; top: one past the largest
    lo, top = int((x[first] + y).min()), int(x[-1] + y.max()) + 1

    def first_at_or_above(s: int) -> np.ndarray:
        # per i, the index of the first x[j], j >= first[i], with x[j] + y[i] >= s
        return np.maximum(np.searchsorted(x, s - y), first)

    start = first
    while lo < top:
        # a becomes the largest end in (lo, top] whose range [lo, a) fits the
        # budget; lo is a sum that occurs, so the range is never empty
        budget = int(start.sum()) + _CHUNK
        a, b = lo + 1, top
        while a < b:
            mid = (a + b + 1) // 2
            if int(first_at_or_above(mid).sum()) <= budget:
                a = mid
            else:
                b = mid - 1
        stop = first_at_or_above(a)
        lengths = stop - start
        # j runs over start[i] .. stop[i] - 1 for each i in turn
        j = np.arange(lengths.sum()) + np.repeat(start - np.cumsum(lengths) + lengths, lengths)
        yield x[j] + np.repeat(y, lengths), j
        # the next range starts at the smallest sum >= a that occurs
        left = stop < len(x)
        lo = int((x[stop[left]] + y[left]).min()) if left.any() else top
        start = stop


def _pair_sum_counts(divs: tuple[int, ...]) -> tuple[np.ndarray, np.ndarray]:
    """The pair-sum histogram: every distinct d1 + d2 over ordered pairs of
    divs, ascending, and the number of pairs giving each."""
    import numpy as np
    a = _as_array(divs)

    def count(sums: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
        sums.sort()  # in place: each range's sums serve this count alone
        first = _run_starts(sums)
        return sums[first], np.diff(first, append=len(sums))

    # each unordered pair once, the pairs d1 <= d2
    ranges = (sums for sums, _ in _sum_ranges(a, a, np.arange(len(a))))
    values, counts = map(np.concatenate, zip(*map(count, ranges)))
    # d1 < d2 stands for two ordered pairs, d1 = d2 for one; the sums 2d
    # are distinct, so each diagonal pair fixes one count
    counts *= 2
    counts[np.searchsorted(values, 2 * a)] -= 1
    return values, counts


def _pair_sums(ctx: DivisorContext) -> tuple[np.ndarray, np.ndarray]:
    """The pair-sum histogram of ctx.n as numpy columns, counted once per
    context: read off its Counter while tau^2 <= _NUMPY_MIN_WORK.  The pair
    budget is charged by _small_pair_sums, before anything is allocated."""
    import numpy as np

    def compute() -> tuple[np.ndarray, np.ndarray]:
        if (hist := _small_pair_sums(ctx)) is None:
            return _pair_sum_counts(ctx.divs)
        values = sorted(hist)
        return np.array(values, dtype=_as_array(ctx.divs).dtype), np.array([hist[s] for s in values])

    return ctx.memo("pair_sums", compute)


def _small_pair_sums(ctx: DivisorContext) -> Counter[int] | None:
    """The pair-sum histogram of ctx.n, sum -> ordered pairs in Python ints,
    counted once per context while tau^2 <= _NUMPY_MIN_WORK; None above."""
    check_budget("pair sums: tau({})^2 pairs", ctx.stats.tau**2, factorcore._MAX_PAIRS, ctx.n)
    if ctx.stats.tau**2 > _NUMPY_MIN_WORK:
        return None
    return ctx.memo("pair_sum_counter", lambda: Counter(starmap(add, product(ctx.divs, repeat=2))))


def count_sum_triples(n: int, ctx: DivisorContext | None = None) -> int:
    """Ordered triples (d1, d2, d3) of divisors of n with d1 + d2 = d3.

    Each is g*(a, b, a + b) with g = gcd(d1, d2), for exactly one entry
    (a, b) -> a + b of the built-in sum map and one divisor g of
    n / (a*b*(a + b)); so the count is the sum of tau(n / (a*b*(a + b)))
    over the map's entries, each tau read off n's own primes.
    """
    ctx = context_of(n, ctx)
    total = 0
    for (a, b), s in builtin_table(ctx, "sum").entries.items():
        q, tau = a * b * s, 1
        for p, v in ctx.factorization.parts:
            while q % p == 0:
                q //= p
                v -= 1
            tau *= v + 1
        total += tau
    return total


def additive_energy(n: int, ctx: DivisorContext | None = None) -> int:
    """Ordered quadruples of divisors with d1 + d2 = d3 + d4."""
    ctx = context_of(n, ctx)
    hist = _small_pair_sums(ctx)
    if hist is not None:
        counts = hist.values()
        return sum(map(mul, counts, counts))
    counts = _pair_sums(ctx)[1]
    return int(counts @ counts)


def energy_decomposition(n: int, ctx: DivisorContext | None = None) -> EnergyDecomposition:
    """Partition all tau(n)^2 ordered pair sums into (e, m) cells."""
    import numpy as np
    ctx = context_of(n, ctx)

    def compute() -> EnergyDecomposition:
        values, counts = _pair_sums(ctx)
        e = np.gcd(values, n)
        # values ascend, so within one e so does m = s / e: the cells in
        # (e, m) order are sorted on e, ties kept in index order
        size = len(e)
        if e.dtype != object and (n + 1) * size <= _INT64_KEYS:
            # the keys e * size + index are distinct and below (n + 1) * size,
            # so one unstable sort of them gives that order, and e with it
            e *= size
            e += np.arange(size)
            e.sort()
            e, order = np.divmod(e, size, out=(e, None))
        else:
            order = np.argsort(e, kind="stable")
            e = e[order]
        m, u = values[order], counts[order]
        m //= e
        for column in (e, m, u):
            column.flags.writeable = False  # the memo hands them to every reader
        return EnergyDecomposition(n, e, m, u, int(counts @ counts))

    return ctx.memo("decomposition", compute)


def _most_frequent_shift(ctx: DivisorContext) -> tuple[int, int]:
    """(m, count) of the most frequent d1 + d2 - d3 over ordered divisor
    triples; the smallest m among equal counts.

    With the pair-sum histogram (s, c(s)), the count of m is the sum of
    c(m + d3) over divisors d3.  The (s, d3) pairs come in ascending ranges
    of m = s - d3, and only the running best is kept from one to the next;
    a walk within _NUMPY_MIN_WORK counts every m in one dict instead.
    """
    hist = _small_pair_sums(ctx)
    walked = ctx.stats.tau * len(hist if hist is not None else _pair_sums(ctx)[0])
    check_budget("corollary3: tau({}) * pair sums", walked, _SHIFT_MAX_PAIRS, ctx.n)
    # the tau sums 2d are distinct, so walked >= tau^2: a small walk has a hist
    if walked <= _NUMPY_MIN_WORK:
        shifts: dict[int, int] = {}
        for s, c in hist.items():
            for d in ctx.divs:
                shifts[s - d] = shifts.get(s - d, 0) + c
        return min(shifts.items(), key=lambda item: (-item[1], item[0]))
    import numpy as np
    values, counts = _pair_sums(ctx)
    best_m, best = 0, 0
    every = np.zeros(ctx.stats.tau, dtype=np.intp)  # every (s, d3) pair
    for shift, j in _sum_ranges(values, -_as_array(ctx.divs), every):
        order = np.argsort(shift)
        shift = shift[order]
        first = _run_starts(shift)
        totals = np.add.reduceat(counts[j[order]], first)
        k = int(np.argmax(totals))  # the first maximum: the smallest m
        if totals[k] > best:
            best_m, best = int(shift[first[k]]), int(totals[k])
    return best_m, best


# floor(e * 10^30) and its successor bracket e; the integer comparison
# against them decides d2 < e*d1 for almost every pair of divisors.
_E_SCALE = 10**30
_E_FLOOR = 2718281828459045235360287471352


def _lt_e_times(d2: int, d1: int) -> bool:
    """d2 < e*d1, exactly; e*d1 is irrational for d1 >= 1, so never equal."""
    lhs = d2 * _E_SCALE
    if lhs <= d1 * _E_FLOOR:
        return True
    if lhs >= d1 * (_E_FLOOR + 1):
        return False
    # With a = k! * sum_{i<=k} 1/i!, the tail sum_{i>k} 1/i! lies in
    # (0, 1/(k*k!)), so a/k! < e < (a + 1/k)/k!; raise k until one side decides.
    a, fact, k = 2, 1, 1
    while True:
        k += 1
        fact *= k
        a = a * k + 1
        if d2 * fact <= d1 * a:
            return True
        if d2 * fact * k >= d1 * (a * k + 1):
            return False


def hooley_delta(n: int, ctx: DivisorContext | None = None) -> int:
    """Maximum number of divisors inside a window (x, e*x].

    The supremum over real windows is attained with the left edge just below
    a divisor d, so it equals the maximum over divisors d of the count of
    divisors in [d, e*d); e*d is irrational, making the half-open form exact.
    """
    divs = context_of(n, ctx).divs
    tau = len(divs)
    best = hi = 0
    for lo in range(tau):
        while hi < tau and _lt_e_times(divs[hi], divs[lo]):
            hi += 1
        best = max(best, hi - lo)
    return best


def residue_profile(n: int, q: int, ctx: DivisorContext | None = None) -> ResidueProfile:
    """Count divisors of n in each residue class mod q, plus the second moment.

    Requires gcd(n, q) = 1; classes are indexed t = 1..q with residue 0
    folded to q (it cannot occur under the coprimality hypothesis).
    """
    if q < 2:
        raise DomainError(f"residue_profile: q must be >= 2, got {_num(q)}")
    if math.gcd(n, q) != 1:
        raise DomainError(f"residue_profile: gcd({_num(n)}, {_num(q)}) != 1")
    ctx = context_of(n, ctx)
    check_budget("residues: tau({}) + q", ctx.stats.tau + q, _RESIDUE_MAX_WORK, n)
    counts = [0] * q
    for d in ctx.divs:
        counts[(d - 1) % q] += 1  # slot t-1 holds class t, so q holds 0
    h = sum(c * c for c in counts)
    eta = math.log(q) / math.log(n) if n >= 2 else math.inf
    return ResidueProfile(n, q, tuple(counts), h, eta)


def _omega_of(f: factorcore.Factorization, e: int) -> int:
    """omega(e) for a divisor e of f.n, read off n's own primes."""
    return sum(1 for p, _ in f.parts if e % p == 0)


def inequality_report(
    n: int,
    bound_id: str,
    ctx: DivisorContext | None = None,
    **params: object,
) -> list[BoundCheckRecord]:
    """Evaluate one named divisor-relation bound at n and return its rows.

    Explicit bounds (corollary1, eq4.1, eq4.2) are asserted; growth-rate
    bounds (thm3a, thm3b, thm4, lemma6, corollary3) are recorded as ratios.
    params go to the bound's evaluator (eq4.1 takes e, thm4 takes q).
    ctx, a DivisorContext of this n, shares its work across bound ids.
    """
    ctx = context_of(n, ctx)
    applicable_spec(bound_id, "relation", ctx)
    return relation_rows(ctx, bound_id, **params)


def relation_rows(
    ctx: DivisorContext, bound_id: str, **params: object
) -> list[BoundCheckRecord]:
    """inequality_report's rows for ctx.n, without its domain check: the
    caller has checked that the relation bound bound_id applies to ctx.n."""
    try:
        rows = BOUNDS[bound_id].evaluate(ctx, **params)
    except DomainError as exc:  # a refused parameter, named by the bound it was for
        raise DomainError(f"{bound_id}: {exc}") from None
    return [make_record(bound_id, ctx.n, lhs, log_rhs, **kw) for lhs, log_rhs, kw in rows]


@bound("corollary1", "relation", asserted=True, sweepable=True)
def _corollary1(ctx: DivisorContext) -> list[tuple]:
    return [(count_sum_triples(ctx.n, ctx=ctx), (2 - DELTA2) * math.log(ctx.stats.tau), {})]


@bound("eq4.1", "relation", asserted=True, squarefree_only=True, sweepable=True)
def _eq41(ctx: DivisorContext, e: int | None = None) -> list[tuple]:
    hist = _small_pair_sums(ctx)
    if hist is not None:
        per_e: dict[int, int] = {}
        for s, c in hist.items():
            g = math.gcd(s, ctx.n)
            per_e[g] = per_e.get(g, 0) + c
    else:
        import numpy as np
        dec = energy_decomposition(ctx.n, ctx=ctx)
        starts = _run_starts(dec.e)
        per_e = dict(zip(dec.e[starts].tolist(), np.add.reduceat(dec.u, starts).tolist()))
    out = []
    for d in ctx.divs:
        if e is not None and d != e:
            continue
        log_rhs = ctx.stats.omega * _LOG_3 + _omega_of(ctx.factorization, d) * _LOG_2_3
        out.append((per_e.get(d, 0), log_rhs, {"e": d}))
    if e is not None and not out:
        raise DomainError(f"e = {_num(e)} does not divide {_num(ctx.n)}")
    return out


@bound("eq4.2", "relation", asserted=True, squarefree_only=True, sweepable=True)
def _eq42(ctx: DivisorContext) -> list[tuple]:
    hist = _small_pair_sums(ctx)
    if hist is not None:
        # per e, the first largest count in ascending s: the smallest m
        best: dict[int, tuple[int, int]] = {}
        for s, c in sorted(hist.items()):
            e = math.gcd(s, ctx.n)
            if c > best.get(e, (0,))[0]:
                best[e] = (c, s // e)
        picks = [(e, m, u) for e, (u, m) in sorted(best.items())]
    else:
        import numpy as np
        dec = energy_decomposition(ctx.n, ctx=ctx)
        # per run of e, the largest u first; lexsort is stable and m ascends
        # within each e, so the first of equal u has the smallest m
        pick = np.lexsort((-dec.u, dec.e))[_run_starts(dec.e)]
        picks = zip(dec.e[pick].tolist(), dec.m[pick].tolist(), dec.u[pick].tolist())
    out = []
    for e, m, u in picks:
        we = _omega_of(ctx.factorization, e)
        log_rhs = (C_EXP * ctx.stats.omega + (1 - C_EXP) * we) * math.log(2)
        out.append((u, log_rhs, {"e": e, "m": m}))
    return out


@bound("thm3a", "relation", asserted=False, squarefree_only=True, sweepable=True)
def _thm3a(ctx: DivisorContext) -> list[tuple]:
    return [(additive_energy(ctx.n, ctx=ctx), ctx.stats.omega * math.log(ENERGY_BASE), {})]


@bound("thm3b", "relation", asserted=False, min_n=2, sweepable=True)
def _thm3b(ctx: DivisorContext) -> list[tuple]:
    log_rhs = 3 * math.log(ctx.stats.tau) - 0.5 * math.log(ctx.stats.omega2)
    return [(additive_energy(ctx.n, ctx=ctx), log_rhs, {})]


@bound("lemma6", "relation", asserted=False, min_n=2, sweepable=True)
def _lemma6(ctx: DivisorContext) -> list[tuple]:
    log_rhs = math.log(ctx.stats.tau) - 0.5 * math.log(ctx.stats.omega2)
    return [(hooley_delta(ctx.n, ctx=ctx), log_rhs, {})]


@bound("thm4", "relation", asserted=False, min_n=2)
def _thm4(ctx: DivisorContext, q: object = None) -> list[tuple]:
    if not isinstance(q, int):
        raise DomainError("integer parameter q required")
    stats = ctx.stats
    profile = residue_profile(ctx.n, q, ctx=ctx)
    rhs = (
        (stats.tau + stats.tau ** (2 - 4 * profile.eta))
        * stats.v_max
        * math.log(stats.tau) ** 1.5
    )
    return [(profile.h_value, math.log(rhs), {"q": q, "eta": profile.eta})]


@bound("corollary3", "relation", asserted=False, squarefree_only=True, sweepable=True)
def _corollary3(ctx: DivisorContext) -> list[tuple]:
    m_best, lhs = _most_frequent_shift(ctx)
    return [(lhs, ctx.stats.omega * math.log(SHIFTED_TRIPLE_BASE), {"m": m_best})]
