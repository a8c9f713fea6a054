"""Explicit divisor maps, regularity constants, bounds, exhaustive maxima."""

import functools
import itertools
import math
import random
import tracemalloc
from collections import defaultdict
from decimal import Decimal

import numpy as np
import pytest
import sympy

from divrel import (
    BUILTIN_KINDS,
    DomainError,
    MapTable,
    ResourceLimitError,
    arith_stats,
    bound_check,
    build_builtin,
    builtin_midpoint_map,
    builtin_successor_map,
    builtin_sum_map,
    check_regularity,
    coprime_tuples,
    divisors,
    exact_E,
    f_value,
    factor,
    kappa,
    map_from_json,
    map_to_json,
    map_violations,
)
from divrel import factorcore, regmaps
from divrel.factorcore import DivisorContext
from divrel.records import BOUNDS
from divrel.regmaps import _collisions, builtin_rows


def brute_regularity(table: MapTable):
    """Recount condition collisions straight from the definitions."""
    j = table.j
    entries = table.entries
    k1 = k2 = 0
    for tup, val in entries.items():
        for i in range(j):
            same1 = same2 = 0
            for tup2, val2 in entries.items():
                if tup2[:i] == tup[:i] and tup2[i + 1 :] == tup[i + 1 :]:
                    if val2 == val:
                        same1 += 1
                    if tup2[i] * val2 == tup[i] * val:
                        same2 += 1
            k1 = max(k1, same1)
            k2 = max(k2, same2)
    k3 = 0
    if j >= 2:
        for tup, val in entries.items():
            for i1 in range(j):
                for i2 in range(i1 + 1, j):
                    same = 0
                    for tup2, val2 in entries.items():
                        rest_match = all(
                            tup2[t] == tup[t]
                            for t in range(j)
                            if t != i1 and t != i2
                        )
                        if (
                            rest_match
                            and val2 == val
                            and tup2[i1] * tup2[i2] == tup[i1] * tup[i2]
                        ):
                            same += 1
                    k3 = max(k3, same)
    return k1, k2, k3


def brute_exact_E(n: int, j: int, k: int) -> int:
    """Unpruned oracle: try every subset of tuples and every value labeling."""
    f = factor(n)
    divs = divisors(f)
    cands = list(coprime_tuples(f, j))
    best = 0
    for size in range(len(cands), 0, -1):
        if size <= best:
            break
        for subset in itertools.combinations(cands, size):
            option_lists = [
                [d for d in divs if all(math.gcd(d, c) == 1 for c in tup)]
                for tup in subset
            ]
            for values in itertools.product(*option_lists):
                table = MapTable(n, j, dict(zip(subset, values)))
                k1, k2, _ = brute_regularity(table)
                if max(k1, k2) <= k:
                    best = size
                    break
            if best == size:
                break
    return best


def oracle_sum_map(n: int, divs: list[int]) -> dict:
    """The sum map over every ordered pair, testing each condition directly."""
    entries = {}
    for d1 in divs:
        for d2 in divs:
            if math.gcd(d1, d2) != 1:
                continue
            s = d1 + d2
            if s <= n and n % s == 0 and math.gcd(s, d1 * d2) == 1:
                entries[(d1, d2)] = s
    return entries


def oracle_midpoint_map(divs: list[int], variant: str) -> dict:
    """The midpoint map over every ordered pair of 1-based indices."""
    tau = len(divs)
    entries = {}
    for i in range(1, tau + 1):
        for jdx in range(1, tau + 1):
            a, b = divs[i - 1], divs[jdx - 1]
            if math.gcd(a, b) != 1:
                continue
            if variant == "exact" and (i + jdx) % 2 != 0:
                continue
            val = divs[(i + jdx) // 2 - 1]
            if math.gcd(val, a) == 1 and math.gcd(val, b) == 1:
                entries[(a, b)] = val
    return entries


def test_sum_map_examples():
    t = builtin_sum_map(6)
    assert dict(t.entries) == {(1, 1): 2, (1, 2): 3, (2, 1): 3}
    assert f_value(t) == 3
    assert dict(builtin_sum_map(4).entries) == {(1, 1): 2}
    assert builtin_sum_map(1).entries == {}


def test_successor_map_examples():
    assert dict(builtin_successor_map(6).entries) == {(1,): 2, (2,): 3}
    assert builtin_successor_map(1).entries == {}
    for p in (2, 3, 13):
        assert dict(builtin_successor_map(p).entries) == {(1,): p}


def test_midpoint_map_examples():
    t = builtin_midpoint_map(6, "exact")
    assert dict(t.entries) == {(1, 1): 1, (1, 3): 2, (3, 1): 2}
    assert dict(builtin_midpoint_map(1, "exact").entries) == {(1, 1): 1}
    floor = builtin_midpoint_map(6, "floor")
    assert floor.entries[(1, 2)] == 1
    with pytest.raises(DomainError):
        builtin_midpoint_map(6, "round")


def test_sum_map_regularity():
    table = builtin_sum_map(6)
    report = check_regularity(table)
    assert (report.k1, report.k2, report.k) == (1, 1, 1)
    assert report.k3 == 2 and report.k_strong == 2
    assert map_violations(table) == []


def test_midpoint_regularity():
    assert check_regularity(builtin_midpoint_map(6, "exact")).k == 1
    assert check_regularity(builtin_midpoint_map(6, "floor")).k <= 2


def test_empty_table_convention():
    table = builtin_sum_map(1)
    report = check_regularity(table)
    assert (report.k1, report.k2, report.k, report.k_strong) == (0, 0, 0, 0)
    assert map_violations(table) == []


def test_regularity_matches_brute_force():
    for n in range(1, 120):
        for kind in ("sum", "successor", "midpoint-exact", "midpoint-floor"):
            table = build_builtin(kind, n)
            report = check_regularity(table)
            k1, k2, k3 = brute_regularity(table)
            assert (report.k1, report.k2) == (k1, k2)
            if table.j >= 2:
                assert report.k3 == k3


def test_regularity_on_random_tables():
    rng = random.Random(23)
    for _ in range(60):
        n = rng.randrange(2, 200)
        f = factor(n)
        divs = divisors(f)
        entries = {}
        for tup in coprime_tuples(f, 2):
            if rng.random() < 0.5:
                continue
            options = [d for d in divs if all(math.gcd(d, c) == 1 for c in tup)]
            if options:
                entries[tup] = rng.choice(options)
        table = MapTable(n, 2, entries)
        report = check_regularity(table)
        assert (report.k1, report.k2, report.k3) == brute_regularity(table)
        assert map_violations(table) == []


def sorted_entry_regularity(table: MapTable) -> tuple:
    """(k1, k2, k3, witnesses) with every entry grouped in sorted tuple
    order, each constant taken by a max and its witness key by a min."""
    buckets = (defaultdict(list), defaultdict(list), defaultdict(list))
    for tup in sorted(table.entries):
        for bucket, pairs in zip(buckets, _collisions(tup, table.entries[tup])):
            for key, sol in pairs:
                bucket[key].append(sol)
    out = []
    for bucket in buckets:
        best = max(map(len, bucket.values()), default=0)
        key = min((key for key, sols in bucket.items() if len(sols) == best), default=None)
        out.append((best, None if key is None else (*key, tuple(bucket[key]))))
    (k1, w1), (k2, w2), (k3, w3) = out
    return (k1, k2, k3, w1, w2, w3) if table.j >= 2 else (k1, k2, None, w1, w2, None)


def record_index_counts(patch):
    """Patch regmaps._index_regularity to note each count on divisor
    indices in the returned list."""
    counted = []
    index_regularity = regmaps._index_regularity

    def recorded(*args):
        counted.append(args)
        return index_regularity(*args)

    patch.setattr(regmaps, "_index_regularity", recorded)
    return counted


def with_columns(table):
    """The clean nonempty pair table with the columns the numpy walk keeps,
    each coordinate and value found among the divisors of n."""
    d = regmaps._as_array(divisors(factor(table.n)))
    z = np.searchsorted(d, np.array(list(table.entries), dtype=d.dtype))
    g = np.searchsorted(d, np.array(list(table.entries.values()), dtype=d.dtype))
    assert list(zip(map(tuple, d[z].tolist()), d[g].tolist())) == list(table.entries.items())
    return MapTable(table.n, 2, table.entries, (d, z, g))


def test_witnesses_match_the_sorted_entry_oracle(monkeypatch):
    # entries are grouped in table order, and only a witness's solutions are
    # sorted; constants and witnesses equal the sorted-entry grouping's.
    # The random pair tables, whose few values make k large, are counted on
    # divisor indices too, given columns (int64, and object past the limit
    # at 2^61 * 315)
    rng = random.Random(11)
    tables = [build_builtin(kind, n) for n in [*range(1, 401), 720720] for kind in BUILTIN_KINDS]
    builtin = len(tables)
    for n in [0] * 200 + [735134400, 2**61 * 315] * 3:
        n, j = (n, 2) if n else (rng.choice([30, 210, 360, 2310]), rng.randrange(1, 4))
        f = factor(n)
        divs = divisors(f)
        tuples = list(coprime_tuples(f, j))
        rng.shuffle(tuples)
        radical = math.prod(p for p, _ in f.parts)
        first_coprime = functools.cache(lambda r: [d for d in divs if math.gcd(d, r) == 1][:3])
        entries = {}
        # at most 4096 entries: 735134400 has 36,855 coprime pairs
        for tup in tuples[: rng.randrange(min(len(tuples), 4096) + 1)]:
            # few values, many collisions
            entries[tup] = rng.choice(first_coprime(math.gcd(math.prod(tup), radical)))
        tables.append(MapTable(n, j, entries))
    counted = record_index_counts(monkeypatch)
    for i, table in enumerate(tables):
        expected = sorted_entry_regularity(table)
        indexed = i >= builtin and table.j == 2 and bool(table.entries)
        for t in (table, with_columns(table)) if indexed else (table,):
            counted.clear()
            r = check_regularity(t)
            assert (r.k1, r.k2, r.k3, r.witness1, r.witness2, r.witness3) == expected, table
            assert len(counted) == (t._columns is not None)
    assert max(check_regularity(table).k for table in tables[-6:]) > 3


def test_witnesses_realize_the_maxima():
    table = builtin_sum_map(6)
    report = check_regularity(table)
    i, rest, target, sols = report.witness1
    assert len(sols) == report.k1
    for z in sols:
        tup = rest[:i] + (z,) + rest[i:]
        assert table.entries[tup] == target
    i1, i2, rest, d, dprod, pairs = report.witness3
    assert len(pairs) == report.k3
    for z1, z2 in pairs:
        assert z1 * z2 == dprod


def test_builtin_tables_are_valid_maps():
    # the sweep does not re-check these tables; the large n take the numpy
    # walk on int64 and, past the limit, on object arrays
    for n in [*range(1, 2001), *HC_MEMBERS, INT64_BELOW, INT64_ABOVE]:
        for kind in ("sum", "successor", "midpoint-exact", "midpoint-floor"):
            table = build_builtin(kind, n)
            assert map_violations(table) == []
            for tup, val in table.entries.items():
                prod = val
                for d in tup:
                    prod *= d
                assert n % prod == 0  # d1*..*dj*g divides n


def test_builtin_tables_match_ordered_pair_oracles():
    # each kind's regularity is pinned too: k1 = k2 <= 1, but k1 <= 2 for
    # midpoint-floor, the sum map's k3 <= 2, and a 0 only for an empty table
    for n in [*range(1, 3001), 9699690, 735134400]:
        divs = divisors(factor(n))
        oracles = {
            "sum": oracle_sum_map(n, divs),
            "midpoint-exact": oracle_midpoint_map(divs, "exact"),
            "midpoint-floor": oracle_midpoint_map(divs, "floor"),
        }
        for kind, table, reg in regmaps.builtin_maps(DivisorContext(n)):
            assert kind not in oracles or table.entries == oracles[kind], (n, kind)
            if kind == "midpoint-floor":
                assert reg.k1 <= 2 and reg.k2 <= 1, (n, reg)
            else:
                assert reg.k1 == reg.k2 <= 1, (n, kind, reg)
            if kind == "sum":
                assert reg.k3 <= 2, (n, reg)
            assert (0 in (reg.k1, reg.k2, reg.k3)) == (not table.entries), (n, kind, reg)


def test_map_violations_messages():
    # one message per broken tuple, however many of its pairs share a factor
    assert map_violations(MapTable(30, 3, {(2, 2, 2): 1})) == [
        "coordinates of (2, 2, 2) are not pairwise coprime"
    ]
    assert map_violations(MapTable(6, 2, {(1,): 2})) == ["tuple (1,) has arity 1, expected 2"]
    assert map_violations(MapTable(6, 1, {(2,): 2})) == ["value 2 shares a factor with (2,)"]
    # a tuple is written as Python writes it, each int in full
    assert map_violations(MapTable(6, 1, {(4,): 1})) == ["coordinate 4 of (4,) does not divide 6"]
    assert map_violations(MapTable(6, 2, {(1, 2): 4})) == [
        "value 4 at (1, 2) does not divide 6", "value 4 shares a factor with (1, 2)"
    ]


def test_witness_tie_break_takes_the_smallest_key():
    # keys (0, (), 2) and (0, (), 7) both reach k1 = 2; entries are given out
    # of order, and the key of the first sorted entry, (1,) -> 7, is the larger
    table = MapTable(210, 1, {(5,): 2, (15,): 7, (3,): 2, (1,): 7})
    assert map_violations(table) == []
    report = check_regularity(table)
    assert (report.k1, report.k2, report.k3) == (2, 1, None)
    assert report.witness1 == (0, (), 2, (3, 5))
    assert report.witness2 == (0, (), 6, (3,))  # z * g: 3*2, 5*2, 1*7, 15*7
    assert report.witness3 is None


def test_build_builtin_refuses_unknown_kind():
    with pytest.raises(DomainError, match="^unknown builtin map kind: 'nope'$"):
        build_builtin("nope", 6)


def test_domain_regular_flags_bad_tables():
    # the contract is checked where a table enters bound_check, whether or
    # not its collisions were counted before
    table = MapTable(6, 2, {(2, 6): 1})
    assert map_violations(table) == ["coordinates of (2, 6) are not pairwise coprime"]
    reason = r"^thm1a: coordinates of \(2, 6\) are not pairwise coprime$"
    for report in (check_regularity(table), None):
        with pytest.raises(DomainError, match=reason):
            bound_check(table, "thm1a", report)


def test_bound_check_sum_map_examples():
    t = builtin_sum_map(6)
    rec = bound_check(t, "thm1b")
    assert rec.lhs == 3 and rec.passed
    assert math.exp(rec.log_rhs) == pytest.approx(9 ** (1 - 0.045072))
    rec = bound_check(t, "c2")
    assert math.exp(rec.log_rhs) == pytest.approx(9.0)
    assert rec.passed
    rec = bound_check(t, "thm2a")
    assert math.exp(rec.log_rhs) == pytest.approx(16.0)
    assert rec.passed
    # arity 1, k = 1: (j*k + 1) * kappa_1(6) / (j*v_max + 1) = 2 * 4 / 2
    rec = bound_check(builtin_successor_map(6), "c2")
    assert math.exp(rec.log_rhs) == pytest.approx(4.0)


def test_map_rows_have_params_in_name_order():
    # map evaluators hand their params over in name order, and no row sorts
    # them again: j first, then the constant, then map= on a sweep's rows
    for n in (1, 6, 30, 360):
        ctx = DivisorContext(n)
        for bound_id in ("thm1a", "thm1b", "thm2a", "thm2b", "c2", "corollary2"):
            if BOUNDS[bound_id].violation(ctx):
                continue
            constant = "k_strong" if bound_id == "thm2a" else "k"
            rows = builtin_rows(ctx, bound_id)
            assert len(rows) == (3 if bound_id == "thm1b" else 4)
            for rec in rows:
                assert [name for name, _ in rec.params] == ["j", constant, "map"]
                table = build_builtin(dict(rec.params)["map"], n)
                assert [name for name, _ in bound_check(table, bound_id).params] == ["j", constant]


def test_bound_check_preconditions():
    with pytest.raises(DomainError):
        bound_check(builtin_successor_map(6), "thm1b")
    with pytest.raises(DomainError):
        bound_check(builtin_sum_map(12), "thm2a")
    with pytest.raises(DomainError):
        bound_check(builtin_sum_map(1), "corollary2")
    with pytest.raises(DomainError):
        bound_check(builtin_sum_map(6), "nope")


def test_bounds_pass_on_builtins_small_range():
    for n in range(1, 200):
        squarefree = arith_stats(factor(n)).v_max <= 1
        for kind in ("sum", "successor", "midpoint-exact", "midpoint-floor"):
            table = build_builtin(kind, n)
            reg = check_regularity(table)
            assert bound_check(table, "thm1a", reg).passed
            assert bound_check(table, "thm2b", reg).passed
            assert bound_check(table, "c2", reg).passed
            if table.j == 2:
                assert bound_check(table, "thm1b", reg).passed
            if squarefree:
                assert bound_check(table, "thm2a", reg).passed


def test_exact_E_examples():
    assert exact_E(6, 1, 1) == 3
    assert exact_E(1, 1, 1) == 1
    for p in (2, 3, 5, 7):
        assert exact_E(p, 1, 1) == 1


def test_exact_E_matches_unpruned_oracle():
    for n in (1, 2, 4, 6, 9):
        for k in (1, 2):
            assert exact_E(n, 1, k) == brute_exact_E(n, 1, k)
    assert exact_E(2, 2, 1) == brute_exact_E(2, 2, 1)
    assert exact_E(3, 2, 1) == brute_exact_E(3, 2, 1)


def test_exact_E_arity_two_matches_unpruned_oracle_at_composites():
    # at a prime every candidate value is 1; at 4 and 6 a value must avoid
    # both coordinates of its tuple
    for n in (4, 6):
        assert exact_E(n, 2, 1) == brute_exact_E(n, 2, 1)


def test_exact_E_search_budget(monkeypatch):
    from divrel import regmaps

    assert exact_E(60, 1, 1) == 7  # the largest search the tests make
    monkeypatch.setattr(regmaps, "_EXACT_E_MAX_NODES", 1000)
    with pytest.raises(ResourceLimitError, match="^exact_E: search passed 1000 nodes$"):
        exact_E(60, 1, 1)
    assert exact_E(6, 1, 1) == 3  # small searches stay under it
    # the deepest search the work budget admits at j = 1, 2^v charged
    # kappa_2 = 2v + 1, recurses tau + 1 = v + 2 deep; 200 frames further
    # down the stack it still stops on the node budget, not the recursion limit
    v = (regmaps._EXACT_E_MAX_WORK - 1) // 2
    assert kappa(factor(2**v), 2) == 2 * v + 1 == regmaps._EXACT_E_MAX_WORK - 1

    def nested(depth):
        return nested(depth - 1) if depth else exact_E(2**v, 1, 1)

    with pytest.raises(ResourceLimitError, match="^exact_E: search passed 1000 nodes$"):
        nested(200)


def test_exact_E_monotone_in_k():
    for n in (6, 8, 10, 12):
        values = [exact_E(n, 1, k) for k in (1, 2, 3)]
        assert values == sorted(values)


def test_exact_E_refuses_before_listing_divisors(monkeypatch):
    with pytest.raises(DomainError):
        exact_E(6, 0, 1)
    with pytest.raises(DomainError):
        exact_E(6, 1, 0)
    # j^2 * kappa_{j+1}(n) is charged before a divisor or tuple is listed,
    # and is printed whole past str()'s 4300-digit limit
    assert exact_E(2, 3, 1) == brute_exact_E(2, 3, 1)
    assert exact_E(2, 4, 1) == brute_exact_E(2, 4, 1)
    assert exact_E(2, 9, 1) == 9  # 9^2 * 11 = 891 <= 1000
    assert exact_E(1, 31, 1) == 1  # one tuple of 31 entries: 31^2 <= 1000
    primorial = math.prod(sympy.primerange(72))  # 20 primes
    huge = (10**400) ** 2 * (10**400 + 2) ** 20
    for name in ("divisors", "coprime_tuples"):
        monkeypatch.setattr(factorcore, name, lambda *args: pytest.fail("listed"))
    for n, j, work in (
        (2, 10, 100 * 12),
        (2, 20_000, 20_000**2 * 20_002),
        (1, 20_000, 20_000**2),
        (1, 32, 32**2),
        (2, 300_000_000, 300_000_000**2 * 300_000_002),
        (720, 2, 4 * 13 * 7 * 4),
        (primorial, 10**400, huge),
    ):
        refusal = rf"^exact_E: {j}\^2 \* kappa_{j + 1}\({n}\) = {Decimal(work)} exceeds budget 1000$"
        with pytest.raises(ResourceLimitError, match=refusal):
            exact_E(n, j, 1)


def walk_rows(kind, n):
    """Per row of a pair map's walk, the pairs it tests, the one whose
    product passes n included, counted one pair at a time."""
    divs = divisors(factor(n))
    rows = []
    for i, a in enumerate(divs):
        rows.append(0)
        for j in range(i, len(divs)):
            rows[-1] += 1
            val = a + divs[j] if kind == "sum" else divs[(i + j) // 2]
            if a * divs[j] * val > n:
                break
    return rows


# The pair walks, and the walk each pair map is built by: midpoint-exact
# filters the midpoint-floor table
PAIR_KINDS = ("sum", "midpoint-floor")
WALKED = {"sum": "sum", "midpoint-exact": "midpoint-floor", "midpoint-floor": "midpoint-floor"}


def test_builtin_pair_maps_refuse_past_the_pair_budget(monkeypatch):
    monkeypatch.setattr(factorcore, "_MAX_PAIRS", 1)
    assert build_builtin("successor", 60).n == 60  # no pair walk
    # 60 takes the row walk, 720720 (tau 240) the numpy walk, and 30 * 2^57
    # (tau 236) the numpy walk on object arrays
    assert arith_stats(factor(720720)).tau >= regmaps._NUMPY_MIN_TAU > arith_stats(factor(60)).tau
    assert arith_stats(factor(INT64_ABOVE)).tau >= regmaps._NUMPY_MIN_TAU
    for kind, walked in WALKED.items():
        for n in (60, 720720, INT64_ABOVE):
            rows = walk_rows(walked, n)
            tested = sum(rows)
            monkeypatch.setattr(factorcore, "_MAX_PAIRS", tested)
            build_builtin(kind, n)  # admitted at exactly the pairs its walk tests
            # one pair fewer is refused after the last row, with the count so
            # far, in the words of the walk that ran
            monkeypatch.setattr(factorcore, "_MAX_PAIRS", tested - 1)
            refusal = rf"^{walked} map of {n}: pairs tested = {tested} exceeds budget {tested - 1}$"
            with pytest.raises(ResourceLimitError, match=refusal):
                build_builtin(kind, n)
            # a budget the first rows pass is refused after the row that passes it
            monkeypatch.setattr(factorcore, "_MAX_PAIRS", rows[0])
            refusal = rf"^{walked} map of {n}: pairs tested = {rows[0] + rows[1]} exceeds"
            with pytest.raises(ResourceLimitError, match=refusal):
                build_builtin(kind, n)


# 2n = 2^62 is the int64 limit: 30 * 2^56 is below it, 30 * 2^57 past it
INT64_BELOW, INT64_ABOVE = 30 * 2**56, 30 * 2**57
# One member of each divbench point-hc template, tau 1344, 256, 480, 384, 432
HC_MEMBERS = (
    735134400,
    9699690,
    2**4 * 3**2 * 5 * 7 * 11 * 13 * 10000019,
    2**3 * 3**3 * 5**2 * 7 * 11 * 13,
    2**2 * 3**2 * 5**2 * 7 * 11 * 17 * 10000019,
)


def row_walk(kind, n):
    return regmaps._row_walk(n, divisors(factor(n)), kind)


def exact_row_walk(n):
    """The midpoint-exact entries walked on their own, j in steps of 2 along
    each row, stored as the row walk stores them."""
    divs = divisors(factor(n))
    entries = {}
    for i, a in enumerate(divs):
        for j in range(i, len(divs), 2):
            b, val = divs[j], divs[(i + j) // 2]
            if a * b * val > n:
                break
            if math.gcd(a, b) == 1 and math.gcd(val, a * b) == 1:
                entries[a, b] = entries[b, a] = val
    return entries


def assert_table_columns(table, label):
    """A copy without columns passes the entry-by-entry check.  Columns, if
    any, give back the entries, one row each, and the report counted on them
    (witnesses and their int types included) is that of the copy."""
    copy = MapTable(table.n, 2, dict(table.entries))
    assert map_violations(copy) == [], label
    if table._columns is None:
        return
    divs, z, g = table._columns
    assert len(g) == len(table.entries), label
    assert list(zip(map(tuple, divs[z].tolist()), divs[g].tolist())) == list(table.entries.items())
    assert repr(check_regularity(table)) == repr(check_regularity(copy)), label


def assert_walks_agree(n, oracle=True):
    """The numpy walk gives the row walk's entries in its order and is
    charged walk_rows' count on every row, whatever the crossover is, and
    its columns pass assert_table_columns.  The midpoint-exact table is the
    midpoint-floor table's entries with an even divisor-index sum, in its
    order, columns included; so are a walk in steps of 2 and, unless oracle
    is off, the ordered-pair oracle."""
    ctx = DivisorContext(n)
    d = regmaps._as_array(ctx.divs)
    for kind in PAIR_KINDS:
        table = regmaps._numpy_walk(ctx, kind)
        assert list(table.entries.items()) == list(row_walk(kind, n).items()), (n, kind)
        assert regmaps._numpy_rows(n, d, kind)[0].tolist() == walk_rows(kind, n), (n, kind)
        assert (table._columns is None) == (not table.entries), (n, kind)
        assert_table_columns(table, (n, kind))
    floor, exact = (build_builtin(kind, n, ctx) for kind in ("midpoint-floor", "midpoint-exact"))
    index = {x: i for i, x in enumerate(ctx.divs)}
    even = [(a, b) for a, b in floor.entries if (index[a] + index[b]) % 2 == 0]
    assert list(exact.entries.items()) == [((a, b), floor.entries[a, b]) for a, b in even], n
    assert list(exact.entries.items()) == list(exact_row_walk(n).items()), n
    assert (exact._columns is None) == (floor._columns is None) == (len(ctx.divs) < regmaps._NUMPY_MIN_TAU)
    assert_table_columns(exact, (n, "midpoint-exact"))
    if oracle:
        assert exact.entries == oracle_midpoint_map(list(ctx.divs), "exact"), n


def test_numpy_walk_matches_the_row_walk():
    # past the int64 limit: tau 236 and 744, and tau 5120 at omega 8
    for n in [*range(1, 3001), *HC_MEMBERS, INT64_BELOW, INT64_ABOVE, 2**61 * 315, 9699690 * 2**38]:
        assert_walks_agree(n)


def test_numpy_walk_matches_the_row_walk_at_tau_16384():
    # the ordered-pair oracle would take about 35 s here
    assert_walks_agree(13082761331670030, oracle=False)


def test_pair_maps_take_the_numpy_walk_from_the_crossover_at_any_n(monkeypatch):
    # tau 168 and 192 on each side of the crossover and tau 232 below the
    # int64 limit, then tau 124 and 236 on each side of the crossover past it
    assert 168 < regmaps._NUMPY_MIN_TAU <= 192
    taken = []
    monkeypatch.setattr(regmaps, "_numpy_walk", lambda ctx, kind: taken.append((ctx.n, kind)) or MapTable(ctx.n, 2, {}))
    cases = ((221760, False), (332640, True), (INT64_BELOW, True), (3 * 2**61, False), (INT64_ABOVE, True))
    for n, numpy in cases:
        for kind, walked in WALKED.items():
            taken.clear()
            table = build_builtin(kind, n)
            assert taken == ([(n, walked)] if numpy else []), (n, kind)
            if not numpy:
                reference = exact_row_walk(n) if kind == "midpoint-exact" else row_walk(kind, n)
                assert list(table.entries.items()) == list(reference.items())
    monkeypatch.undo()
    # past the limit the numpy walk's table is the ordered-pair oracle's
    divs = divisors(factor(INT64_ABOVE))
    assert builtin_sum_map(INT64_ABOVE).entries == oracle_sum_map(INT64_ABOVE, divs)
    for variant in ("exact", "floor"):
        assert builtin_midpoint_map(INT64_ABOVE, variant).entries == oracle_midpoint_map(divs, variant)


def test_a_refused_numpy_walk_lists_no_candidate(monkeypatch):
    # with one block for every candidate, an admitted walk allocates at least
    # one int64 column of them; a refused walk stops at its per-row arrays,
    # int64 at 735134400 and object past the int64 limit (tau 744)
    monkeypatch.setattr(regmaps, "_BLOCK", 1 << 22)
    for n, kind in itertools.product((735134400, 2**61 * 315), PAIR_KINDS):
        ctx = DivisorContext(n)
        tested, candidates = regmaps._numpy_rows(n, regmaps._as_array(ctx.divs), kind)
        ctx.stats, ctx.factorization  # worked out before tracing
        column = 8 * int(candidates.sum())
        peaks = []
        for budget in (int(tested.sum()) - 1, int(tested.sum())):
            monkeypatch.setattr(factorcore, "_MAX_PAIRS", budget)
            tracemalloc.start()
            try:
                regmaps._numpy_walk(ctx, kind)
            except ResourceLimitError:
                assert budget < tested.sum()
            finally:
                peaks.append(tracemalloc.get_traced_memory()[1])
                tracemalloc.stop()
        refused, admitted = peaks
        assert refused < column < admitted, (n, kind, refused, column, admitted)


def test_index_path_falls_back_outside_the_contract(monkeypatch):
    # each table is a built-in table above the crossover with one entry
    # added or changed; the copy has no columns, so the dict paths check,
    # describe and count it
    sum_map, n = builtin_sum_map(9699690), 9699690  # squarefree: 4 does not divide n
    wide = build_builtin("midpoint-floor", 9699690 * 2**37)  # 2n fits int64
    twos = build_builtin("midpoint-floor", 735134400)  # 2^6 divides n
    cases = [
        # a value that does not divide n
        (sum_map, (3, 5), n + 1, [f"value {n + 1} at (3, 5) does not divide {n}"]),
        (sum_map, (3, 5), -8, [f"value -8 at (3, 5) does not divide {n}"]),
        # a tuple of another arity
        (sum_map, (3,), 2, ["tuple (3,) has arity 1, expected 2"]),
        # not coprime, and 2 * 2 does not divide n
        (sum_map, (2, 2), 3, ["coordinates of (2, 2) are not pairwise coprime"]),
        # not coprime, though every product divides n
        (twos, (2, 2), 3, ["coordinates of (2, 2) are not pairwise coprime"]),
        # past int64
        (twos, (3, 5), 2**70, [f"value {2**70} at (3, 5) does not divide 735134400"]),
        # not coprime, with products past n and past int64, 2^38 * 2^30
        (wide, (2**38, 1), 2**30, [f"value {2**30} shares a factor with ({2**38}, 1)"]),
        (wide, (2**38, 2**30), 1, [f"coordinates of ({2**38}, {2**30}) are not pairwise coprime"]),
    ]
    counted = record_index_counts(monkeypatch)
    for table, tup, val, problems in cases:
        assert table._columns is not None
        bad = MapTable(table.n, table.j, {**table.entries, tup: val})
        assert bad._columns is None
        assert map_violations(bad) == problems, (tup, val)
        check_regularity(bad)
    # a number of another type is counted in dicts, even where it equals a
    # divisor; the entry-by-entry check refuses a float in math.gcd
    for val in (2.0, True):
        bad = MapTable(n, 2, {**sum_map.entries, (3, 5): val})
        assert bad._columns is None
        check_regularity(bad)
    assert counted == []
    # an arity-3 table is checked entry by entry: clean, then broken
    triples = {tup: 1 for tup in coprime_tuples(factor(2310), 3)}
    assert map_violations(MapTable(2310, 3, triples)) == []
    triples[2, 3, 5] = 5
    assert map_violations(MapTable(2310, 3, triples)) == [
        "value 5 shares a factor with (2, 3, 5)"
    ]


def test_column_backed_entries_are_read_only():
    # a table with columns is checked and counted on its columns, and the
    # builtin_table memo shares it across every bound of one n, so its
    # entries refuse an edit; an edited dict copy is checked entry by entry
    table = build_builtin("sum", 735134400)
    before = check_regularity(table)
    assert table._columns is not None and table.entries == dict(table.entries)
    with pytest.raises(TypeError):
        table.entries[(2, 2)] = 4
    with pytest.raises(TypeError):
        del table.entries[(1, 1)]
    assert map_violations(table) == [] and check_regularity(table) == before
    edited = dict(table.entries)
    edited[(2, 2)] = 4
    copy = MapTable(table.n, 2, edited)
    assert copy._columns is None
    assert map_violations(copy) == [
        "coordinates of (2, 2) are not pairwise coprime",
        "value 4 shares a factor with (2, 2)",
    ]
    with pytest.raises(DomainError, match="thm1a: coordinates of"):
        bound_check(copy, "thm1a")


def test_sweep_tables_stay_on_the_dict_path(monkeypatch):
    # the sweep's tables, at most 57 entries for n <= 5000 (midpoint-floor
    # of 4620), come from the row walk, so they have no columns and never
    # list the divisor index; a tau-1344 table is counted on its columns
    counted = record_index_counts(monkeypatch)
    largest = 0
    for n in range(1, 5001):
        ctx = DivisorContext(n)
        tables = [table for _, table, _ in regmaps.builtin_maps(ctx)]
        largest = max(largest, *map(len, (table.entries for table in tables)))
        assert all(table._columns is None for table in tables), n
        assert "divisor_index" not in ctx._memo, n
    assert largest == 57
    assert counted == []
    table = regmaps.builtin_table(DivisorContext(735134400), "midpoint-floor")
    check_regularity(table)
    assert len(counted) == 1
    # a copy without columns, as read from a file, is counted in dicts
    check_regularity(MapTable(table.n, 2, dict(table.entries)))
    assert len(counted) == 1


def test_exact_E_below_kappa_power_bound():
    # E(n,1,1) <= kappa_1(n)^(1-delta_1), one representative n per exponent
    # signature with tau <= 12 (the value depends only on the signature)
    from divrel import delta_j

    d1 = delta_j(1)
    reps = [1, 2, 4, 8, 16, 32, 64, 128, 256, 512, 1024, 2048,
            6, 12, 24, 48, 96, 36, 72, 30, 60]
    signatures = set()
    for n in reps:
        assert arith_stats(factor(n)).tau <= 12
        signatures.add(tuple(sorted((v for _, v in factor(n).parts), reverse=True)))
        assert exact_E(n, 1, 1) <= kappa(factor(n), 1) ** (1 - d1) + 1e-9
    assert len(signatures) == len(reps)


def test_map_json_round_trip():
    table = builtin_sum_map(6)
    again = map_from_json(map_to_json(table))
    assert again.n == table.n and again.j == table.j
    assert dict(again.entries) == dict(table.entries)


def test_map_json_rejects_garbage():
    with pytest.raises(DomainError):
        map_from_json("not json")
    with pytest.raises(DomainError):
        map_from_json('{"n": 6}')
    with pytest.raises(DomainError):
        map_from_json('{"n": 6, "j": 2, "entries": [[1, 2]]}')
    with pytest.raises(DomainError):
        map_from_json('{"n": 0, "j": 2, "entries": []}')
    with pytest.raises(DomainError):
        map_from_json('{"n": 6, "j": 2, "entries": 5}')
