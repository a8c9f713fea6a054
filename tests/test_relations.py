"""Additive and congruence relation counts on divisor sets."""

import cmath
import inspect
import math
import random
import sys
import tracemalloc
from collections import Counter

import numpy as np
import pytest
import sympy

from divrel import (
    C_EXP,
    ENERGY_BASE,
    ENERGY_SPLIT_ETA,
    SHIFTED_TRIPLE_BASE,
    DomainError,
    ResourceLimitError,
    additive_energy,
    arith_stats,
    count_sum_triples,
    divisors,
    energy_decomposition,
    factor,
    hooley_delta,
    inequality_report,
    residue_profile,
)
from divrel import factorcore, regmaps, relations
from divrel.factorcore import DivisorContext
from divrel.relations import _lt_e_times


def divisor_list(n):
    return divisors(factor(n))


def brute_energy(n: int) -> int:
    """Quadruple-loop oracle for the additive energy."""
    divs = divisor_list(n)
    count = 0
    for d1 in divs:
        for d2 in divs:
            for d3 in divs:
                for d4 in divs:
                    if d1 + d2 == d3 + d4:
                        count += 1
    return count


def rep_count(n: int, m: int) -> int:
    """Set-lookup oracle: ordered divisor pairs of n summing to m."""
    if m < 0:
        raise DomainError(f"rep_count: m must be >= 0, got {m}")
    divs = divisor_list(n)
    dset = set(divs)
    return sum(1 for d in divs if d < m and (m - d) in dset)


def u_count(n: int, e: int, m: int) -> int:
    """Cell oracle U(e, m): pairs with d1 + d2 = m*e where e is the gcd of
    the sum with n."""
    if e < 1 or n % e != 0:
        raise DomainError(f"u_count: e = {e} does not divide n = {n}")
    if m < 1:
        raise DomainError(f"u_count: m must be >= 1, got {m}")
    if math.gcd(m * e, n) != e:
        raise DomainError(f"u_count: gcd({m}*{e}, {n}) != {e}")
    return rep_count(n, m * e)


def brute_triples(n: int) -> int:
    divs = divisor_list(n)
    return sum(
        1
        for d1 in divs
        for d2 in divs
        for d3 in divs
        if d1 + d2 == d3
    )


def brute_hooley(n: int) -> int:
    """Window oracle anchored at the right edge: count in (d/e, d]."""
    divs = divisor_list(n)
    return max(
        sum(1 for dp in divs if d / math.e < dp <= d) for d in divs
    )


def loop_pair_sums(divs) -> Counter:
    """Double-loop oracle: the number of ordered pairs per sum d1 + d2."""
    return Counter(d1 + d2 for d1 in divs for d2 in divs)


def loop_max_shift(divs, sums) -> tuple[int, int]:
    """Triple-loop oracle (pair sums by d3): (m, count) of the most frequent
    d1 + d2 - d3, the smallest m among equal counts."""
    shifts: dict[int, int] = {}
    for s, c in sums.items():
        for d3 in divs:
            shifts[s - d3] = shifts.get(s - d3, 0) + c
    count = max(shifts.values())
    return min(m for m, k in shifts.items() if k == count), count


def check_against_loops(n: int, max_shift: tuple[int, int] | None = None) -> None:
    """Energy, decomposition, triples and corollary3 against the loop
    oracles; max_shift, when given, stands in for loop_max_shift's result."""
    ctx = DivisorContext(n)
    divs = ctx.divs
    sums = loop_pair_sums(divs)
    energy = sum(c * c for c in sums.values())
    assert additive_energy(n, ctx=ctx) == energy
    cells = []
    for s, c in sums.items():
        e = math.gcd(s, n)
        cells.append((e, s // e, c))
    dec = energy_decomposition(n, ctx=ctx)
    assert dec.rows == tuple(sorted(cells))
    assert dec.total_energy == energy
    assert {type(x) for x in dec.rows[0] + dec.rows[-1]} == {int}
    assert count_sum_triples(n, ctx=ctx) == sum(sums.get(d, 0) for d in divs)
    if ctx.stats.v_max == 1:
        (rec,) = inequality_report(n, "corollary3", ctx=ctx)
        m = dict(rec.params)["m"]
        assert type(m) is int and (m, rec.lhs) == (max_shift or loop_max_shift(divs, sums))
        assert rec.lhs == sum(sums.get(d + m, 0) for d in divs)


def loop_eq41(ctx: DivisorContext, e: int | None = None) -> list[tuple]:
    """Row-loop oracle for the eq4.1 rows: per-e totals summed cell by cell."""
    per_e: dict[int, int] = {}
    for d, _, u in energy_decomposition(ctx.n, ctx=ctx).rows:
        per_e[d] = per_e.get(d, 0) + u
    out = []
    for d in ctx.divs:
        if e is not None and d != e:
            continue
        we = relations._omega_of(ctx.factorization, d)
        log_rhs = ctx.stats.omega * math.log(3) + we * math.log(2 / 3)
        out.append((per_e.get(d, 0), log_rhs, {"e": d}))
    return out


def loop_eq42(ctx: DivisorContext) -> list[tuple]:
    """Row-loop oracle for the eq4.2 rows: per e, the first cell of largest
    u in (e, m) order, so the smallest m among equal u."""
    best: dict[int, tuple[int, int]] = {}
    for e, m, u in energy_decomposition(ctx.n, ctx=ctx).rows:
        if e not in best or u > best[e][0]:
            best[e] = (u, m)
    out = []
    for e, (u, m) in sorted(best.items()):
        we = relations._omega_of(ctx.factorization, e)
        log_rhs = (C_EXP * ctx.stats.omega + (1 - C_EXP) * we) * math.log(2)
        out.append((u, log_rhs, {"e": e, "m": m}))
    return out


def check_cell_readers(n: int) -> None:
    """eq4.1 (every e, and each e alone up to tau 16) and eq4.2 rows
    against the loops, with Python ints in every count and parameter."""
    ctx = DivisorContext(n)
    pairs = ((relations._eq41(ctx), loop_eq41(ctx)), (relations._eq42(ctx), loop_eq42(ctx)))
    for got, want in pairs:
        assert got == want, n
        assert {type(v) for lhs, _, params in got for v in (lhs, *params.values())} == {int}
    if ctx.stats.tau <= 16:
        for d in ctx.divs:
            assert relations._eq41(ctx, e=d) == loop_eq41(ctx, e=d)


def test_cell_readers_match_row_loops():
    for n in range(1, 3001):
        if arith_stats(factor(n)).v_max == 1:
            check_cell_readers(n)
    check_cell_readers(6469693230)  # tau 1024, int64 columns
    check_cell_readers(15 * (2**61 - 1))  # object columns


def test_eq42_takes_the_largest_cell_then_the_smallest_m():
    # n = 30: U(1, 7) = U(1, 11) = 4, U(2, 4) = U(2, 8) = 4, and every cell
    # of e = 3, 5, 6 and 15 ties with another of its e
    recs = inequality_report(30, "eq4.2")
    picks = {dict(r.params)["e"]: (dict(r.params)["m"], r.lhs) for r in recs}
    assert picks == {
        1: (7, 4), 2: (4, 4), 3: (1, 2), 5: (1, 2),
        6: (1, 3), 10: (2, 3), 15: (1, 2), 30: (1, 1),
    }


# The relation bounds that read the pair-sum histogram, and the
# _NUMPY_MIN_WORK settings that send every kernel to numpy and to Python ints.
HISTOGRAM_BOUNDS = ("thm3a", "thm3b", "eq4.1", "eq4.2", "corollary3")
ALL_NUMPY, ALL_PYTHON = 0, 10**9


def relation_results(n: int) -> list:
    """n's additive energy, the rows of each histogram bound (thm3b needs
    n >= 2), eq4.1's row for each e that divides n and its refusal of n + 1."""
    ctx = DivisorContext(n)
    out = [additive_energy(n, ctx=ctx)]
    out += [relations.relation_rows(ctx, b) for b in HISTOGRAM_BOUNDS if n > 1 or b != "thm3b"]
    out += [relations.relation_rows(ctx, "eq4.1", e=d) for d in ctx.divs]
    with pytest.raises(DomainError) as exc:
        relations.relation_rows(ctx, "eq4.1", e=n + 1)
    return [*out, str(exc.value)]


def test_python_and_numpy_paths_agree(monkeypatch):
    # every n <= 3000, an odd tau, and n past int64, where numpy holds
    # Python ints; ALL_PYTHON is above every kernel's work at these n
    for n in [*range(1, 3001), 2025, 15 * (2**61 - 1)]:
        results = []
        for work in (ALL_NUMPY, ALL_PYTHON):
            monkeypatch.setattr(relations, "_NUMPY_MIN_WORK", work)
            results.append(relation_results(n))
        assert results[0] == results[1], n


def test_numpy_counts_only_past_the_rule(monkeypatch):
    # the histogram and its readers count in Python ints up to tau 24
    # (tau^2 <= _NUMPY_MIN_WORK), corollary3 up to tau * sums <= it
    real, taus = relations._pair_sum_counts, []
    monkeypatch.setattr(relations, "_pair_sum_counts", lambda divs: taus.append(len(divs)) or real(divs))
    assert additive_energy(360) == brute_energy(360)  # tau 24
    for b in HISTOGRAM_BOUNDS:
        inequality_report(30, b)  # squarefree, tau 8; corollary3 walks 8 * 28 sums
    for b in HISTOGRAM_BOUNDS[:-1]:
        inequality_report(210, b)  # squarefree, tau 16
    assert taus == []
    additive_energy(960)  # tau 28
    # 16 * 97 sums: numpy walks columns read off the Counter, not recounted
    inequality_report(210, "corollary3")
    assert taus == [28]


def test_one_context_counts_its_pairs_once(monkeypatch):
    # squarefree tau 16: four bounds read the Counter and corollary3's walk
    # reads numpy columns, which come from that same Counter
    counted = []
    real_product, real_counts = relations.product, relations._pair_sum_counts
    monkeypatch.setattr(relations, "product", lambda *a, **k: counted.append("Counter") or real_product(*a, **k))
    monkeypatch.setattr(relations, "_pair_sum_counts", lambda divs: counted.append("numpy") or real_counts(divs))
    ctx = DivisorContext(210)
    rows = [inequality_report(210, b, ctx) for b in HISTOGRAM_BOUNDS]
    assert counted == ["Counter"]
    # all on numpy, a fresh context counts once too, and gives the same rows
    monkeypatch.setattr(relations, "_NUMPY_MIN_WORK", ALL_NUMPY)
    ctx = DivisorContext(210)
    assert rows == [inequality_report(210, b, ctx) for b in HISTOGRAM_BOUNDS]
    assert counted == ["Counter", "numpy"]


def test_pair_sum_readers_match_loops_up_to_5000():
    for n in range(1, 5001):
        check_against_loops(n)


def test_pair_sum_readers_match_loops_at_high_tau():
    check_against_loops(735134400)  # tau 1344
    # tau 256, squarefree, 22 ranges of m.  loop_max_shift takes 2.5-4 s
    # here and gives (m, count) = (0, 2044), which is pinned instead.
    check_against_loops(9699690, max_shift=(0, 2044))


def test_pair_sum_histogram_dtype_guard():
    # 2n < 2^62 takes int64; at and above it the arrays hold Python ints
    below = 3 * 643 * 1195356666259043  # 2^61 - 5, tau 8
    above = 15 * (2**61 - 1)  # tau 8
    for n, dtype in ((below, "int64"), (2**61 - 1, "int64"), (2**61, "object"), (above, "object")):
        values = relations._pair_sum_counts(divisor_list(n))[0]
        dec = energy_decomposition(n)
        assert values.dtype == dec.e.dtype == dec.m.dtype == dtype, n
        check_against_loops(n)


def test_corollary3_ties_take_the_smallest_m(monkeypatch):
    # n = 2: m = 1 and m = 2 both have 3 triples
    (rec,) = inequality_report(2, "corollary3")
    assert (dict(rec.params)["m"], rec.lhs) == (1, 3)
    # ranges of m holding a few (s, d3) pairs put ties in different ranges;
    # these n take the Python-int path unless every kernel is sent to numpy
    monkeypatch.setattr(relations, "_NUMPY_MIN_WORK", 0)
    squarefree = [n for n in range(1, 120) if arith_stats(factor(n)).v_max == 1]
    for chunk in (1, 7):
        monkeypatch.setattr(relations, "_CHUNK", chunk)
        for n in squarefree:
            divs = divisor_list(n)
            (rec,) = inequality_report(n, "corollary3")
            assert (dict(rec.params)["m"], rec.lhs) == loop_max_shift(divs, loop_pair_sums(divs)), (n, chunk)


def test_pair_counts_in_small_ranges(monkeypatch):
    # ranges of a few pairs each, on both dtypes, with every kernel on numpy
    monkeypatch.setattr(relations, "_NUMPY_MIN_WORK", 0)
    for chunk in (1, 7, 100):
        monkeypatch.setattr(relations, "_CHUNK", chunk)
        for n in (1, 2, 12, 30, 360, 15 * (2**61 - 1)):
            check_against_loops(n)


def test_pair_triangles_at_odd_tau(monkeypatch):
    # The histogram walks each unordered pair once, doubles the counts and
    # takes one off each diagonal sum 2d; both n are squares, of odd tau.
    # At tau 15 a _CHUNK of 1000 holds the whole triangle in one range.
    for n, dtype, chunks in (
        (2025, "int64", (7, 60, 100, 1000)),  # tau 15
        (9 * 2**60, "object", (100, 1000, 2000)),  # tau 183
    ):
        divs = divisor_list(n)
        sums = loop_pair_sums(divs)
        for chunk in chunks:
            monkeypatch.setattr(relations, "_CHUNK", chunk)
            values, counts = relations._pair_sum_counts(divs)
            assert values.dtype == dtype
            assert values.tolist() == sorted(sums), (n, chunk)
            assert counts.tolist() == [sums[s] for s in sorted(sums)], (n, chunk)


def test_sum_ranges_bisect_only_while_the_rest_does_not_fit(monkeypatch):
    # tau 15: the triangle holds 120 pairs.  A _CHUNK of 120 lists them as
    # one range, with one searchsorted for its end and no bisection; at
    # 119 the first range's end is bisected for, and the rest then fits
    a = regmaps._as_array(divisor_list(2025))
    calls = []
    searchsorted = np.searchsorted
    monkeypatch.setattr(np, "searchsorted", lambda *x, **k: calls.append(1) or searchsorted(*x, **k))
    for chunk, ranges, bisected in ((120, 1, False), (119, 2, True)):
        monkeypatch.setattr(relations, "_CHUNK", chunk)
        calls.clear()
        listed = list(relations._sum_ranges(a, a, np.arange(len(a))))
        assert sum(len(sums) for sums, _ in listed) == 120, chunk
        assert (len(listed), len(calls) > ranges) == (ranges, bisected), chunk


def test_pair_count_memory_is_bounded():
    n = 13967553600  # 2^6 3^3 5^2 7 11 13 17 19, tau 2688
    divs = divisor_list(n)
    tracemalloc.start()
    try:
        count_sum_triples(n)
        triples_peak = tracemalloc.get_traced_memory()[1]
        tracemalloc.reset_peak()
        values, counts = relations._pair_sum_counts(divs)
        histogram_peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    # no histogram for the triples; the histogram's build needs at most
    # twice the histogram itself plus a few MB for one range of sums
    assert triples_peak < 16 * 2**20, triples_peak
    assert histogram_peak < 2 * (values.nbytes + counts.nbytes) + 24 * 2**20, histogram_peak


def test_corollary3_memory_is_bounded():
    tracemalloc.start()
    try:
        inequality_report(9699690, "corollary3")
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak < 40 * 2**20, peak


def test_pair_kernels_refuse_past_the_pair_budget(monkeypatch):
    monkeypatch.setattr(factorcore, "_MAX_PAIRS", 100)
    assert additive_energy(48) == brute_energy(48)  # tau 10: 100 pairs
    calls = (additive_energy, energy_decomposition,
             lambda n, ctx: inequality_report(n, "corollary3", ctx))
    for call in calls:
        ctx = DivisorContext(210)  # squarefree, tau 16
        with pytest.raises(ResourceLimitError) as exc:
            call(210, ctx)
        assert str(exc.value) == "pair sums: tau(210)^2 pairs = 256 exceeds budget 100"
        assert "divs" not in vars(ctx)  # refused before the divisors were listed


def test_sum_triples_are_charged_the_sum_map_walk(monkeypatch):
    # the pairs (a, b), a <= b, that the sum map's walk tests: each row
    # stops at the first a*b*(a + b) > n, which is tested too; at tau 240
    # the sum map is built by the numpy walk
    divs = divisor_list(720720)
    assert len(divs) >= regmaps._NUMPY_MIN_TAU
    tested = sum(
        next((j - i + 1 for j in range(i, len(divs)) if a * divs[j] * (a + divs[j]) > 720720),
             len(divs) - i)
        for i, a in enumerate(divs)
    )
    assert tested < len(divs) ** 2 // 20
    monkeypatch.setattr(factorcore, "_MAX_PAIRS", tested)
    members = set(divs)
    assert count_sum_triples(720720) == sum(a + b in members for a in divs for b in divs)
    monkeypatch.setattr(factorcore, "_MAX_PAIRS", tested - 1)
    refusal = f"sum map of 720720: pairs tested = {tested} exceeds budget {tested - 1}"
    with pytest.raises(ResourceLimitError) as exc:
        count_sum_triples(720720)
    assert str(exc.value) == refusal


def test_corollary3_refuses_past_its_pair_budget(monkeypatch):
    walked = len(relations._pair_sum_counts(divisor_list(30))[0]) * 8
    monkeypatch.setattr(relations, "_SHIFT_MAX_PAIRS", walked)
    inequality_report(30, "corollary3")
    monkeypatch.setattr(relations, "_SHIFT_MAX_PAIRS", walked - 1)
    with pytest.raises(ResourceLimitError, match=rf"^corollary3: tau\(30\) \* pair sums = {walked} exceeds"):
        inequality_report(30, "corollary3")


def test_count_sum_triples_examples():
    assert count_sum_triples(6) == 4
    assert count_sum_triples(1) == 0
    assert count_sum_triples(2) == 1


def test_count_sum_triples_brute_force():
    for n in range(1, 200):
        assert count_sum_triples(n) == brute_triples(n)


def test_count_sum_triples_at_large_n():
    # from an independent count that looked every pair sum up among the divisors
    for n, tau, count in (
        (735134400, 1344, 71294),
        (994593600, 1344, 67300),
        (6469693230, 1024, 14802),
        (200560490130, 2048, 39590),
        (60610578481152000, 1476, 37142),
        (7420738134810, 4096, 104192),
        (304250263527210, 8192, 274826),
        (13082761331670030, 16384, 726344),
        (9 * 2**60, 183, 772),  # past the int64 guard of the pair kernels
    ):
        ctx = DivisorContext(n)
        assert (ctx.stats.tau, count_sum_triples(n, ctx=ctx)) == (tau, count), n


def loop_sum_triples(f, entries) -> int:
    """Entry-loop oracle: tau(n / (a*b*(a + b))) summed over the sum map's
    entries, each tau found by dividing out n's primes one at a time."""
    total = 0
    for (a, b), s in entries.items():
        q, tau = a * b * s, 1
        for p, v in f.parts:
            while q % p == 0:
                q //= p
                v -= 1
            tau *= v + 1
        total += tau
    return total


def test_column_triple_count_matches_the_entry_loop():
    # numpy-walk tables (tau >= 192) are counted on their columns; 332640
    # has tau 192, 2^62 * 105 walks in object dtype
    for n in (332640, 9699690, 735134400, 7207213693680, 13082761331670030, 2**62 * 105):
        table = regmaps.builtin_table(DivisorContext(n), "sum")
        assert table._columns is not None, n
        want = loop_sum_triples(factor(n), table.entries)
        # the same columns with no entries: the entry loop would count 0
        ctx = DivisorContext(n)
        ctx.memo(("builtin", "sum"), lambda: regmaps.MapTable(n, 2, {}, table._columns))
        assert count_sum_triples(n, ctx=ctx) == want, n
    assert want == 5006  # 2^62 * 105; 13082761331670030's 726,344 is pinned above


def test_a_context_of_another_n_is_refused():
    calls = {
        "count_sum_triples": lambda ctx: count_sum_triples(6, ctx=ctx),
        "additive_energy": lambda ctx: additive_energy(6, ctx=ctx),
        "energy_decomposition": lambda ctx: energy_decomposition(6, ctx=ctx),
        "hooley_delta": lambda ctx: hooley_delta(6, ctx=ctx),
        "residue_profile": lambda ctx: residue_profile(6, 5, ctx=ctx),
        "inequality_report": lambda ctx: inequality_report(6, "thm3b", ctx=ctx),
        "builtin_sum_map": lambda ctx: regmaps.builtin_sum_map(6, ctx=ctx),
        "builtin_successor_map": lambda ctx: regmaps.builtin_successor_map(6, ctx=ctx),
        "builtin_midpoint_map": lambda ctx: regmaps.builtin_midpoint_map(6, "floor", ctx=ctx),
        "build_builtin": lambda ctx: regmaps.build_builtin("sum", 6, ctx),
        "bound_check": lambda ctx: regmaps.bound_check(
            regmaps.build_builtin("sum", 6), "thm1a", ctx=ctx),
    }
    # every public function that takes an optional context is called
    optional_ctx = {
        name
        for module in (relations, regmaps)
        for name, fn in vars(module).items()
        if inspect.isfunction(fn) and fn.__module__ == module.__name__
        and not name.startswith("_")
        and "ctx" in inspect.signature(fn).parameters
        and inspect.signature(fn).parameters["ctx"].default is None
    }
    assert optional_ctx == set(calls)
    for name, call in calls.items():
        with pytest.raises(DomainError) as exc:
            call(DivisorContext(30))
        assert str(exc.value) == "a DivisorContext of 30 was given for n = 6", name
        call(DivisorContext(6))


def test_one_context_builds_the_sum_table_once(monkeypatch):
    built = Counter()
    real = regmaps.build_builtin

    def counting(kind, n, ctx=None):
        built[kind] += 1
        return real(kind, n, ctx)

    monkeypatch.setattr(regmaps, "build_builtin", counting)
    for first_relation in (True, False):
        built.clear()
        ctx = DivisorContext(720720)
        calls = [lambda: inequality_report(720720, "corollary1", ctx=ctx),
                 lambda: regmaps.builtin_rows(ctx, "thm1a")]
        for call in calls if first_relation else calls[::-1]:
            call()
        assert built["sum"] == 1, built


def test_additive_energy_examples():
    assert additive_energy(2) == 6
    assert additive_energy(6) == 32
    assert additive_energy(1) == 1


def test_additive_energy_brute_force():
    for n in (1, 2, 6, 12, 30, 36, 60):
        assert additive_energy(n) == brute_energy(n)


def test_rep_count_examples():
    assert rep_count(6, 4) == 3
    assert rep_count(6, 13) == 0
    for n in (1, 5, 12, 100):
        assert rep_count(n, 2) >= 1


def test_u_count_examples():
    assert u_count(6, 1, 5) == 2
    assert u_count(6, 2, 2) == 3
    with pytest.raises(DomainError):
        u_count(6, 1, 4)
    with pytest.raises(DomainError):
        u_count(6, 4, 1)


def test_energy_decomposition_examples():
    assert energy_decomposition(6).total_energy == 32
    dec = energy_decomposition(1)
    assert dec.rows == ((1, 2, 1),)
    with pytest.raises(ValueError):  # the memoised columns are read-only
        dec.u[0] = 2
    assert sum(u for _, _, u in energy_decomposition(2).rows) == 4


def test_energy_cells_are_the_stable_gcd_order(monkeypatch):
    # the columns are np.gcd of the histogram's sums with n, then sums / e
    # and the counts, put in order by a stable argsort of e
    def check(n, dtype):
        values, counts = relations._pair_sum_counts(divisor_list(n))
        e = np.gcd(values, n)
        order = np.argsort(e, kind="stable")
        dec = energy_decomposition(n)
        assert dec.e.dtype == dec.m.dtype == dtype, n
        assert dec.e.tolist() == e[order].tolist(), n
        assert dec.m.tolist() == (values[order] // e[order]).tolist(), n
        assert dec.u.tolist() == counts[order].tolist(), n
        return (n + 1) * len(values) <= relations._INT64_KEYS

    ns = (1, 2, 1000003, 2025, 735134400)
    # int64 cells are ordered by one sort of the keys e * cells + index
    # while those fit: at the prime 2^61 - 1 the keys reach 3 * 2^61
    for n in (*ns, 2**61 - 1):
        assert check(n, "int64"), n
    assert not check(2**60, "int64")  # tau 61: (2^60 + 1) * 1891 > 2^63
    # the key sort runs exactly while (n + 1) * cells is at most the guard:
    # with the guard one below that, the stable argsort of e runs instead
    n = 2025
    cells = len(relations._pair_sums(DivisorContext(n))[0])
    for guard, stable in (((n + 1) * cells - 1, True), ((n + 1) * cells, False)):
        monkeypatch.setattr(relations, "_INT64_KEYS", guard)
        sorts = []
        argsort = np.argsort
        ctx = DivisorContext(n)
        relations._pair_sums(ctx)  # the histogram is counted before the spy
        with monkeypatch.context() as patch:
            patch.setattr(np, "argsort", lambda *a, **k: sorts.append(k) or argsort(*a, **k))
            energy_decomposition(n, ctx=ctx)
        assert sorts == ([{"kind": "stable"}] if stable else []), guard
        assert check(n, "int64") == (not stable), guard
    # with the guard at 0 every int64 n takes the stable argsort, and past
    # _INT64_SUMS every n takes object dtype
    monkeypatch.setattr(relations, "_INT64_KEYS", 0)
    for n in ns:
        check(n, "int64")
    monkeypatch.setattr(regmaps, "_INT64_SUMS", 0)
    for n in (*ns, 15 * (2**61 - 1)):
        check(n, "object")


def test_gcds_from_residue_tables_match_np_gcd(monkeypatch):
    # 735134400 fills two moduli; 10000019 is past the cap of 2^16, and so
    # are 2^17 and 2^18, of which 2^16 goes to a table, and 2^17 .. 2^40 of
    # 2^40 * 127575 (tau 1722); 2^61 - 5 is the largest n of int64 sums
    rng = np.random.default_rng(5)
    for n in (1, 10000019, 9699690, 735134400, 7207213693680, 2**17 * 315, 2**18 * 315,
              2**40 * 127575, 10000019**2 * 6, 2**61 - 5):
        f = factor(n)
        values = relations._pair_sums(DivisorContext(n))[0]
        assert values.dtype == "int64", n
        values = np.concatenate((values, rng.integers(0, 2 * n + 1, 1000), [0, 2 * n]))
        want = np.gcd(values, n)
        assert relations._gcds_with_n(values, f).tolist() == want.tolist(), n
        with monkeypatch.context() as patch:
            few = np.concatenate((values[:200], values[-300:]))
            for block in (1, 7):
                patch.setattr(relations, "_CHUNK", block)
                assert relations._gcds_with_n(few, f).tolist() == np.gcd(few, n).tolist(), (n, block)


def test_energy_decomposition_rows_are_valid():
    for n in range(1, 300):
        dec = energy_decomposition(n)
        for e, m, u in dec.rows:
            assert n % e == 0
            assert math.gcd(m * e, n) == e
            assert u >= 1
            assert u_count(n, e, m) == u


def test_pair_partition_identity():
    # sum of all U(e, m) cells recovers tau(n)^2
    for n in range(1, 2001):
        dec = energy_decomposition(n)
        tau = arith_stats(factor(n)).tau
        assert sum(u for _, _, u in dec.rows) == tau * tau


def test_energy_identity_small():
    for n in range(1, 500):
        assert energy_decomposition(n).total_energy == additive_energy(n)


def test_hooley_delta_examples():
    assert hooley_delta(1) == 1
    assert hooley_delta(12) == 3
    for p in (3, 5, 7, 97, 9973):
        assert hooley_delta(p) == 1
    assert hooley_delta(2) == 2  # window [1, e) holds both divisors
    assert hooley_delta(2**15000) == 2  # tau 15001, past str()'s digit limit


def test_hooley_delta_brute_force():
    for n in range(1, 3000):
        assert hooley_delta(n) == brute_hooley(n)


def e_convergents():
    """Convergents p/q of e = [2; 1, 2, 1, 1, 4, 1, 1, 6, ...]."""
    terms = [1] + [a for i in range(1, 40) for a in (2 * i, 1, 1)]
    h0, h1, k0, k1 = 1, 2, 0, 1
    for a in terms:
        h0, h1, k0, k1 = h1, a * h1 + h0, k1, a * k1 + k0
        yield h1, k1


def test_e_window_is_exact_beyond_thirty_digits():
    # the convergents of e are the pairs closest to the 30-digit bracket;
    # sympy's e to 100 digits is the oracle
    e100 = sympy.E.evalf(100)
    pairs = [(p, q) for p, q in e_convergents() if 10**15 <= q <= 10**40]
    assert len(pairs) > 20
    for p, q in pairs:
        for d2 in (p - 1, p, p + 1):
            assert _lt_e_times(d2, q) == bool(d2 < e100 * q), (d2, q)
    # 2124008553358849 / 781379079653017 is a convergent just below e
    assert hooley_delta(2124008553358849 * 781379079653017) == 2


def test_residue_profile_examples():
    prof = residue_profile(12, 5)
    assert prof.counts == (2, 2, 1, 1, 0)
    assert prof.h_value == 10
    for n in (7, 12, 100):
        q = n + 1
        prof = residue_profile(n, q)
        assert prof.h_value == arith_stats(factor(n)).tau
    with pytest.raises(DomainError):
        residue_profile(6, 3)
    with pytest.raises(DomainError):
        residue_profile(6, 1)


def test_residue_profile_work_budget(monkeypatch):
    monkeypatch.setattr(relations, "_RESIDUE_MAX_WORK", 20)
    assert residue_profile(35, 16).h_value == 4  # tau 4 + q 16: 1, 5, 7, 35 in four classes
    with pytest.raises(ResourceLimitError, match=r"^residues: tau\(35\) \+ q = 21 exceeds budget 20$"):
        residue_profile(35, 17)


def test_residue_profile_invariants():
    rng = random.Random(11)
    for _ in range(200):
        n = rng.randrange(2, 3000)
        q = rng.randrange(2, 50)
        if math.gcd(n, q) != 1:
            continue
        prof = residue_profile(n, q)
        tau = arith_stats(factor(n)).tau
        assert sum(prof.counts) == tau
        assert prof.h_value == sum(c * c for c in prof.counts)
        assert prof.h_value * q >= tau * tau  # second moment lower bound
        brute = sum(
            1
            for d1 in divisor_list(n)
            for d2 in divisor_list(n)
            if (d1 - d2) % q == 0
        )
        assert prof.h_value == brute


def exp_sum(n: int, theta: float) -> complex:
    """Divisor exponential sum W(theta): sum over d | n of exp(2*pi*i*theta*d)."""
    return sum(cmath.exp(2j * math.pi * theta * d) for d in divisor_list(n))


def test_exp_sum_examples():
    assert exp_sum(12, 0) == pytest.approx(6 + 0j)
    assert exp_sum(12, 0.5) == pytest.approx(2 + 0j, abs=1e-9)
    for theta in (0.1, 0.37, 1.9):
        w = exp_sum(60, theta)
        assert abs(w) <= arith_stats(factor(60)).tau + 1e-9
        assert cmath.isclose(w.conjugate(), exp_sum(60, -theta), abs_tol=1e-9)


def test_corollary1_report_example():
    (rec,) = inequality_report(6, "corollary1")
    assert rec.lhs == 4
    assert math.exp(rec.log_rhs) == pytest.approx(4 ** (2 - 0.045072))
    assert math.exp(rec.log_rhs) == pytest.approx(15.031, abs=1e-3)
    assert rec.passed and rec.asserted


def test_corollary1_holds_small_range():
    for n in range(1, 2001):
        (rec,) = inequality_report(n, "corollary1")
        assert rec.passed


def test_eq41_report_example():
    recs = inequality_report(30, "eq4.1", e=1)
    assert len(recs) == 1
    assert math.exp(recs[0].log_rhs) == pytest.approx(27.0)
    assert recs[0].passed
    # omega(6) = 2: 3^3 * (2/3)^2
    (rec,) = inequality_report(30, "eq4.1", e=6)
    assert math.exp(rec.log_rhs) == pytest.approx(12.0)


def test_eq41_eq42_require_squarefree():
    with pytest.raises(DomainError):
        inequality_report(12, "eq4.1")
    with pytest.raises(DomainError):
        inequality_report(12, "eq4.2")


def test_lemma6_report_example():
    (rec,) = inequality_report(12, "lemma6")
    assert rec.lhs == 3
    assert math.exp(rec.log_rhs) == pytest.approx(6 / math.sqrt(5))
    assert rec.passed  # recorded, not asserted
    assert not rec.asserted


def test_thm4_report_records_ratio():
    (rec,) = inequality_report(35, "thm4", q=4)
    assert rec.lhs == residue_profile(35, 4).h_value
    assert math.isfinite(rec.log_rhs)


def test_corollary3_report_matches_max_shift():
    for n in (6, 30, 210):
        (rec,) = inequality_report(n, "corollary3")
        divs = divisor_list(n)
        sums = loop_pair_sums(divs)
        assert (dict(rec.params)["m"], rec.lhs) == loop_max_shift(divs, sums)
        assert rec.lhs >= sum(sums.get(d, 0) for d in divs)  # m = 0 is one candidate


def test_unknown_bound_id():
    with pytest.raises(DomainError):
        inequality_report(6, "no-such-bound")


def test_bound_parameter_refusals_name_the_bound():
    with pytest.raises(DomainError, match=r"^eq4\.1: e = 4 does not divide 30$"):
        inequality_report(30, "eq4.1", e=4)
    with pytest.raises(DomainError, match=r"^thm4: integer parameter q required$"):
        inequality_report(30, "thm4")


BIG, BIG_DIGITS = 10**5000, "10{5000}"  # past str()'s 4300-digit limit


def _digits(x: int) -> str:
    """str(x) with the digit limit lifted for this call only."""
    limit = sys.get_int_max_str_digits()
    sys.set_int_max_str_digits(0)
    try:
        return str(x)
    finally:
        sys.set_int_max_str_digits(limit)


@pytest.mark.parametrize(
    "call, error, message",
    [
        (lambda: factor(-BIG), DomainError, f"factor: n must be a positive integer, got -{BIG_DIGITS}"),
        (lambda: divisors(factor(BIG)), ResourceLimitError,
         rf"divisors: tau\({BIG_DIGITS}\) = 25010001 exceeds budget 2000000"),
        (lambda: factorcore.kappa(factor(6), -BIG), DomainError, f"kappa: j must be >= 1, got -{BIG_DIGITS}"),
        (lambda: factorcore.coprime_tuples(factor(6), -BIG), DomainError,
         f"coprime_tuples: j must be >= 1, got -{BIG_DIGITS}"),
        (lambda: regmaps.exact_E(6, -BIG, 1), DomainError,
         f"exact_E: j and k must be >= 1, got j=-{BIG_DIGITS}, k=1"),
        (lambda: residue_profile(7, -BIG), DomainError, f"residue_profile: q must be >= 2, got -{BIG_DIGITS}"),
        (lambda: residue_profile(BIG, 10), DomainError, rf"residue_profile: gcd\({BIG_DIGITS}, 10\) != 1"),
        # 10^5000 = 2 mod 7: the work tau(7) + q is 10^5000 + 3
        (lambda: residue_profile(7, BIG + 1), ResourceLimitError,
         r"residues: tau\(7\) \+ q = 10{4999}3 exceeds budget 10000000"),
        (lambda: count_sum_triples(BIG, DivisorContext(6)), DomainError,
         f"a DivisorContext of 6 was given for n = {BIG_DIGITS}"),
        (lambda: inequality_report(30, "eq4.1", e=BIG), DomainError,
         rf"eq4\.1: e = {BIG_DIGITS} does not divide 30"),
        (lambda: inequality_report(30, "thm4", q=-BIG), DomainError,
         f"thm4: residue_profile: q must be >= 2, got -{BIG_DIGITS}"),
        (lambda: inequality_report(2**15000, "eq4.1"), DomainError,
         rf"eq4\.1: n = {_digits(2**15000)} is not squarefree"),
        (lambda: regmaps.bound_check(regmaps.MapTable(BIG, 1, {(3,): 1}), "c2"), DomainError,
         rf"c2: coordinate 3 of \(3,\) does not divide {BIG_DIGITS}"),
        (lambda: regmaps.bound_check(regmaps.MapTable(6, 1, {(BIG,): 1}), "thm1a"), DomainError,
         rf"thm1a: coordinate {BIG_DIGITS} of \({BIG_DIGITS},\) does not divide 6"),
        (lambda: regmaps.map_to_json(regmaps.build_builtin("successor", 2**15000)), DomainError,
         f"map table of n = {_digits(2**15000)}: an int past {sys.get_int_max_str_digits()} digits"),
    ],
    ids=["factor", "divisors", "kappa", "coprime_tuples", "exact_E", "residue_q", "residue_gcd",
         "residue_work", "context", "eq4.1_e", "thm4_q", "eq4.1_squarefree", "map_table",
         "map_tuple", "map_json"],
)
def test_refusals_write_an_int_past_the_digit_limit(call, error, message):
    with pytest.raises(error, match=f"^{message}$"):
        call()


def test_energy_constant_consistency():
    # the split eta balances both halves of the energy bound
    exponent = (2 + C_EXP) + (1 - C_EXP) * (1 - ENERGY_SPLIT_ETA)
    assert 2**exponent == pytest.approx(ENERGY_BASE, abs=1e-6)
    assert math.sqrt(2 * ENERGY_BASE) == pytest.approx(SHIFTED_TRIPLE_BASE, abs=1e-5)
