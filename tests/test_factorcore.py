"""Factorization, divisor enumeration, and multiplicative statistics."""

import math
import random
import tracemalloc
from fractions import Fraction

import pytest
import sympy
from hypothesis import given, settings
from hypothesis import strategies as st

from divrel import factorcore
from divrel import (
    DomainError,
    ResourceLimitError,
    arith_stats,
    coprime_tuples,
    divisors,
    factor,
    kappa,
)


def t_weight(f, d: int) -> Fraction:
    """Reciprocal-exponent weight: prod over primes p | d of 1/v where p^v || n.

    Summing prod_i t_weight(d_i) over the coprime j-tuples gives exactly
    (j+1)^omega(n), an exact rational oracle for coprime_tuples.
    """
    if d < 1 or f.n % d != 0:
        raise DomainError(f"t_weight: {d} does not divide {f.n}")
    w = Fraction(1)
    for p, v in f.parts:
        if d % p == 0:
            w *= Fraction(1, v)
    return w


def brute_coprime_count(n: int, j: int) -> int:
    """Independent oracle: nested loops over divisors with pairwise gcd tests."""
    divs = divisors(factor(n))
    count = 0
    stack = [(0, ())]
    while stack:
        depth, tup = stack.pop()
        if depth == j:
            count += 1
            continue
        for d in divs:
            if all(math.gcd(d, other) == 1 for other in tup):
                stack.append((depth + 1, tup + (d,)))
    return count


def test_factor_examples():
    assert factor(12).parts == ((2, 2), (3, 1))
    assert factor(1).parts == ()
    assert factor(720).parts == ((2, 4), (3, 2), (5, 1))


def test_factor_rejects_nonpositive():
    with pytest.raises(DomainError):
        factor(0)
    with pytest.raises(DomainError):
        factor(-12)


def test_factor_product_and_primality_random():
    rng = random.Random(7)
    for _ in range(200):
        n = rng.randrange(1, 10**6)
        f = factor(n)
        prod = 1
        for p, v in f.parts:
            assert v >= 1
            assert all(p % q != 0 for q in range(2, math.isqrt(p) + 1))
            prod *= p**v
        assert prod == n
        assert list(f.parts) == sorted(f.parts)


def test_factor_large_inputs_use_rho():
    p, q = 999999937, 998244353
    assert factor(p * q).parts == ((q, 1), (p, 1))
    m = 2**61 - 1  # Mersenne prime
    assert factor(m).parts == ((m, 1),)
    assert factor(10**12).parts == ((2, 12), (5, 12))


# 997 and 1009 straddle the trial-division limit; 1009**2 is the first
# composite cofactor that trial division leaves for Miller-Rabin and rho.
FACTOR_EDGE_CASES = (
    997, 1009, 997**2, 1009**2, 997 * 1009, 999983 * 1000003, 9999991, 10000019,
    2**61 - 1, 6469693230, 735134400,
)
_prime_below_1e9 = st.integers(2, 10**9).map(lambda x: sympy.prevprime(x + 1))


def assert_matches_sympy(n):
    f = factor(n)
    assert f.n == n and dict(f.parts) == sympy.factorint(n)
    assert list(f.parts) == sorted(f.parts)
    divs = divisors(f)
    assert list(divs) == sympy.divisors(n)
    assert arith_stats(f).tau == len(divs) == sympy.divisor_count(n)


@pytest.mark.parametrize("n", FACTOR_EDGE_CASES)
def test_factor_edge_cases_match_sympy(n):
    assert_matches_sympy(n)


@settings(derandomize=True, database=None, max_examples=400, deadline=None)
@given(st.integers(1, 10**7 - 1))
def test_factor_matches_sympy_below_1e7(n):
    assert_matches_sympy(n)


@settings(derandomize=True, database=None, max_examples=200, deadline=None)
@given(_prime_below_1e9, _prime_below_1e9)
def test_factor_matches_sympy_on_two_prime_products(p, q):
    assert_matches_sympy(p * q)


def test_divisors_examples():
    assert divisors(factor(6)) == (1, 2, 3, 6)
    assert divisors(factor(1)) == (1,)
    assert divisors(factor(12)) == (1, 2, 3, 4, 6, 12)
    assert len(divisors(factor(2**15000))) == 15001  # n past str()'s digit limit


def test_divisors_cap(monkeypatch):
    monkeypatch.setattr(factorcore, "_MAX_DIVISORS", 100)
    assert len(divisors(factor(2**4 * 3**4 * 5**3))) == 100
    with pytest.raises(ResourceLimitError, match=r"^divisors: tau\(720720\) = 240 exceeds budget 100$"):
        divisors(factor(720720))


def test_check_budget_writes_its_text_only_on_refusal():
    class Unwritable:
        def __format__(self, spec):
            raise AssertionError("formatted within budget")

        def __str__(self):
            raise AssertionError("written within budget")

    factorcore.check_budget("work {}", 5, 5, Unwritable())
    with pytest.raises(ResourceLimitError, match="^work 10{5000} of 3 = 6 exceeds budget 5$"):
        factorcore.check_budget("work {} of {}", 6, 5, 10**5000, 3)


def test_rho_step_budget(monkeypatch):
    n = 999983 * 1000003  # no prime factor below 1000, so rho splits it
    assert dict(factor(n).parts) == {999983: 1, 1000003: 1}
    monkeypatch.setattr(factorcore, "_RHO_MAX_WORK", 10)
    message = f"^factor: rho on {n} passed 10 steps of 1\\^2 limb products, budget 10$"
    with pytest.raises(ResourceLimitError, match=message):
        factor(n)
    # a cofactor that Miller-Rabin finds prime takes no rho step
    assert dict(factor(997 * (2**61 - 1)).parts) == {997: 1, 2**61 - 1: 1}


def test_rho_budget_charges_limbs_squared(monkeypatch):
    # rho splits off 1000003 in 1276 steps from each of these, whose sizes
    # are 2, 3 and 4 limbs of 64 bits; a step costs limbs^2 of the budget
    for limbs, big in ((2, 10**20), (3, 10**40), (4, 10**60)):
        n = 1000003 * sympy.nextprime(big)
        assert -(-n.bit_length() // 64) == limbs
        monkeypatch.setattr(factorcore, "_RHO_MAX_WORK", 1276 * limbs**2)
        assert factor(n).parts[0] == (1000003, 1)
        monkeypatch.setattr(factorcore, "_RHO_MAX_WORK", 1276 * limbs**2 - 1)
        with pytest.raises(ResourceLimitError, match=f"passed 1275 steps of {limbs}\\^2 limb"):
            factor(n)
    # a step that alone costs more than the budget is never taken
    monkeypatch.setattr(factorcore, "_RHO_MAX_WORK", 15)
    with pytest.raises(ResourceLimitError, match="passed 0 steps of 4\\^2 limb"):
        factor(n)


def test_miller_rabin_is_only_asked_about_trial_division_cofactors(monkeypatch):
    # _is_prime assumes n > 1 with no prime factor below 1000; rho's factors
    # (1009 and 1013 from 1009 * 1013) are asked about too, and may be < 10^6
    asked, real = [], factorcore._is_prime
    monkeypatch.setattr(factorcore, "_is_prime", lambda n: asked.append(n) or real(n))
    rng = random.Random(13)
    rho = [1009 * 1013, 1009**3 * 1013, 999983 * 1000003 * 6, 2**61 - 1]
    for _ in range(40):  # two primes past 1000, times a cofactor trial division strips
        p, q = (sympy.nextprime(rng.randrange(1000, top)) for top in (10**6, 10**9))
        rho.append(p * q * rng.randrange(1, 1000))
    for n in [*FACTOR_EDGE_CASES, *rho, *(rng.randrange(1, 10**18) for _ in range(200))]:
        assert dict(factor(n).parts) == sympy.factorint(n)
    assert {1009 * 1013, 1009, 1013} <= set(asked)
    assert sum(not sympy.isprime(n) for n in asked) >= 40  # the rho composites
    assert all(n > 1 and all(n % p for p in factorcore._SMALL_PRIMES) for n in asked)


def test_miller_rabin_budget(monkeypatch):
    # the 12 rounds are charged limbs^3 each, before the first one
    p = sympy.nextprime(10**60)  # 4 limbs: 768
    monkeypatch.setattr(factorcore, "_MR_MAX_WORK", 768)
    assert factor(p).parts == ((p, 1),)
    monkeypatch.setattr(factorcore, "_MR_MAX_WORK", 767)
    message = r"^factor: Miller-Rabin: 12 rounds x 4\^3 limbs = 768 exceeds budget 767$"
    with pytest.raises(ResourceLimitError, match=message):
        factor(p)


def as_tuple(stats):
    return (stats.tau, stats.omega, stats.big_omega, stats.omega2, stats.v_max)


def test_arith_stats_examples():
    assert as_tuple(arith_stats(factor(12))) == (6, 2, 3, 5, 2)
    assert as_tuple(arith_stats(factor(1))) == (1, 0, 0, 0, 0)
    assert as_tuple(arith_stats(factor(8))) == (4, 1, 3, 9, 3)


def test_arith_stats_cauchy_schwarz():
    for n in range(2, 2000):
        s = arith_stats(factor(n))
        assert s.omega2 * s.omega >= s.big_omega**2


@pytest.mark.parametrize(
    "n,j,expect", [(12, 1, 6), (12, 2, 15), (4, 3, 7)]
)
def test_kappa_examples(n, j, expect):
    assert kappa(factor(n), j) == expect
    assert brute_coprime_count(n, j) == expect


def test_kappa_matches_brute_force_small_range():
    for n in range(1, 120):
        f = factor(n)
        for j in (1, 2, 3):
            assert kappa(f, j) == brute_coprime_count(n, j)


def test_kappa_equals_tau_at_j1():
    for n in range(1, 500):
        f = factor(n)
        assert kappa(f, 1) == arith_stats(f).tau


def signature(f):
    """Exponent multiset sorted non-increasingly; blind to which primes occur."""
    return tuple(sorted((v for _, v in f.parts), reverse=True))


def test_signature_examples():
    assert signature(factor(12)) == (2, 1)
    assert signature(factor(30)) == (1, 1, 1)
    assert signature(factor(1)) == ()


def test_signature_prime_relabeling_invariance():
    assert signature(factor(2**2 * 3)) == signature(factor(5**2 * 7))
    assert signature(factor(2 * 3**4 * 5**2)) == signature(factor(11**4 * 13**2 * 17))


def test_coprime_tuples_examples():
    assert list(coprime_tuples(factor(1), 3)) == [(1, 1, 1)]
    assert list(coprime_tuples(factor(5), 2)) == [(1, 1), (5, 1), (1, 5)]
    assert len(list(coprime_tuples(factor(12), 2))) == 15


def test_coprime_tuples_are_valid_and_distinct():
    for n in (30, 36, 64, 210, 720):
        f = factor(n)
        for j in (1, 2, 3):
            seen = set()
            for tup in coprime_tuples(f, j):
                assert len(tup) == j
                for d in tup:
                    assert n % d == 0
                for a in range(j):
                    for b in range(a + 1, j):
                        assert math.gcd(tup[a], tup[b]) == 1
                seen.add(tup)
            assert len(seen) == kappa(f, j)


def test_coprime_tuples_count_equals_kappa():
    for n in range(1, 300):
        f = factor(n)
        for j in (1, 2, 3):
            assert sum(1 for _ in coprime_tuples(f, j)) == kappa(f, j)


def test_coprime_tuples_deterministic_order():
    f = factor(12)
    first = list(coprime_tuples(f, 2))
    assert first[0] == (1, 1)
    assert first == list(coprime_tuples(f, 2))
    # per prime: skip first, then coordinate 1..j taking exponent 1..v
    assert list(coprime_tuples(factor(4), 2)) == [
        (1, 1), (2, 1), (4, 1), (1, 2), (1, 4),
    ]


def test_coprime_tuples_cap(monkeypatch):
    # charged j * kappa coordinates: 2 * (9 * 9 * 7) is exactly the budget
    monkeypatch.setattr(factorcore, "_MAX_TUPLE_COORDS", 1134)
    assert len(list(coprime_tuples(factor(2**4 * 3**4 * 5**3), 2))) == 9 * 9 * 7
    # refusals come from the call itself, before any next()
    with pytest.raises(ResourceLimitError, match=r"^coprime_tuples: 3 \* kappa_3\(720720\) = 69888 exceeds budget 1134$"):
        coprime_tuples(factor(720720), 3)
    with pytest.raises(DomainError):
        coprime_tuples(factor(12), 0)


def recursive_coprime_tuples(f, j):
    """The recursive enumerator coprime_tuples replaced, kept as its order oracle."""
    parts = f.parts

    def rec(idx, coords):
        if idx == len(parts):
            yield coords
            return
        p, v = parts[idx]
        yield from rec(idx + 1, coords)
        for i in range(j):
            pe = 1
            for _ in range(v):
                pe *= p
                yield from rec(idx + 1, coords[:i] + (coords[i] * pe,) + coords[i + 1 :])

    return rec(0, (1,) * j)


def test_coprime_tuples_match_recursive_oracle():
    cases = [(n, j) for n in range(1, 3001) for j in (1, 2, 3)]
    cases += [(6469693230, 2), (9699690, 3), (360360, 3), (2**20 * 3 * 5 * 7, 3)]
    # heads that keep, rebuild and pass through product columns, at j = 2, 4, 6
    cases += [(2**6 * 3**4 * 5**2 * 7 * 11, 2), (360360, 4), (30030, 6)]
    for n, j in cases:
        f = factor(n)
        assert list(coprime_tuples(f, j)) == list(recursive_coprime_tuples(f, j)), (n, j)


def test_coprime_tuples_stream_stays_lazy():
    # 531441 and 1044225 tuples; a list of either would take over 60 MB
    for n in (math.prod([2, 3, 5, 7, 11, 13, 17, 19, 23, 29, 31, 37]), 2**12 * 3**10 * 5**8 * 7**6 * 11**4):
        f = factor(n)
        tracemalloc.start()
        try:
            count = sum(1 for _ in coprime_tuples(f, 2))
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert count == kappa(f, 2), n
        assert peak < 2 * 2**20, (n, peak)


def test_coprime_tuples_refuse_before_allocating():
    # 3000 * kappa_3000(6) = 2.7 * 10^10 coordinates; listing the prefix
    # and suffix of 3001 tuples each would take over 200 MB
    f = factor(6)
    tracemalloc.start()
    try:
        with pytest.raises(ResourceLimitError, match=r"^coprime_tuples: 3000 \* kappa_3000\(6\) = 27018003000 "):
            coprime_tuples(f, 3000)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak < 2**20, peak


def test_t_weight_examples():
    f = factor(12)
    assert t_weight(f, 6) == Fraction(1, 2)
    assert t_weight(f, 1) == 1
    total = sum(
        t_weight(f, d1) * t_weight(f, d2) for d1, d2 in coprime_tuples(f, 2)
    )
    assert total == 9  # (2+1)^omega(12)


def test_kappa_refuses_arity_zero():
    with pytest.raises(DomainError, match="^kappa: j must be >= 1, got 0$"):
        kappa(factor(12), 0)


def test_t_weight_rejects_non_divisor():
    with pytest.raises(DomainError):
        t_weight(factor(12), 5)


def test_t_weight_sum_identity():
    # sum over coprime j-tuples of prod T(d_i) equals (j+1)^omega(n), exactly
    for n in range(1, 2001):
        f = factor(n)
        omega = len(f.parts)
        weights = {d: t_weight(f, d) for d in divisors(f)}
        for j in (1, 2):
            total = Fraction(0)
            for tup in coprime_tuples(f, j):
                term = Fraction(1)
                for d in tup:
                    term *= weights[d]
                total += term
            assert total == (j + 1) ** omega


def test_power_mean_strict_inequality():
    # (j+1) * v^(j/(j+1)) < j*v + 1 for the tested grid
    for j in range(1, 7):
        for v in range(2, 101):
            assert (j + 1) * v ** (j / (j + 1)) < j * v + 1
