"""Integer factorization, divisor enumeration, and multiplicative statistics.

Everything downstream (relation counts, regular mappings, concentration
bounds) starts from the exact factorization produced here.  The module is
pure Python: every count is an exact Python integer.
"""

from __future__ import annotations

import itertools
import math
import operator
from dataclasses import dataclass
from functools import cached_property
from typing import Callable, Iterator, TypeVar

from .errors import DomainError, ResourceLimitError, _num

# Work budgets, one per kernel on its own measure of work.  Past its budget a
# kernel raises ResourceLimitError before it allocates, or, where the work is
# not known in advance, as soon as its count passes the budget.
_MAX_DIVISORS = 2 * 10**6  # divisors(): tau(n), about 1 s and 100 MB
# A pair kernel is charged the pairs of divisors it visits: the pair-sum
# histogram all tau(n)^2 before the divisors are listed (at most 5 * 10^7
# sums, 800 MB as two int64 columns, at tau = 10^4, and its build peaks
# higher: 880 MB for the 2.5 * 10^7 sums of tau 8192); the map walks the
# pairs they test, row by row
# (on 2 x86 cores the numpy walk takes 0.75 s for 6.6 * 10^7 pairs at tau
# 60000, and 1 to 2 s for the 3.3 to 6.6 * 10^7 of the 16-prime primorial,
# tau 65536, in exact Python ints).
_MAX_PAIRS = 10**8
# coprime_tuples(): kappa_j(n).  On a 2-core x86 box s_bounds walks 10^8
# tuples in about 1 minute at j = 2 (27 s for the 4.3 * 10^7 of the 16-prime
# primorial) and 2.6 minutes at j = 9 (158 s for s_bounds(9699690, 9)).
_MAX_TUPLES = 10**8
# _rho_split(): steps times the square of n's size in 64-bit limbs, the cost
# of a step's products mod n, counted as they run.  On a 2-core x86 box a
# step takes 1.6 us at one limb and 2.2 us at two, so this is 3 * 10^6 or
# 7.5 * 10^5 steps, under 5 s; at 4000 digits (208 limbs) it is 69 steps of
# 1.2 ms.
_RHO_MAX_WORK = 3 * 10**6

# factor() trial-divides by the primes below 1000; a cofactor left below
# 1000**2 is then 1 or a prime, and a larger one goes to Miller-Rabin and rho.
_TRIAL_LIMIT = 1000
_SMALL_PRIMES = tuple(
    p for p in range(2, _TRIAL_LIMIT) if all(p % q for q in range(2, math.isqrt(p) + 1))
)

# Deterministic Miller-Rabin witness set, valid far beyond 2**64.
_MR_WITNESSES = (2, 3, 5, 7, 11, 13, 17, 19, 23, 29, 31, 37)
# _is_prime(): rounds times the cube of n's size in 64-bit limbs, the cost of
# a round's pow(a, d, n), charged before the first round.  On a 2-core x86
# box the 12 rounds took 0.06 s at 300 digits (16 limbs), 0.3 s at 600 (32)
# and 1.4 s at 1000 (52 limbs, 1.7 * 10^6); 4000 digits (208) is refused.
_MR_MAX_WORK = 2 * 10**6

T = TypeVar("T")


@dataclass(frozen=True)
class Factorization:
    """n together with its prime/exponent parts, primes ascending.

    n = 1 is the empty product: parts == ().
    """

    n: int
    parts: tuple[tuple[int, int], ...]


@dataclass(frozen=True)
class ArithStats:
    """The divisor-count and exponent statistics of one integer.

    tau       number of divisors, prod (v+1)
    omega     number of distinct primes
    big_omega sum of exponents
    omega2    sum of squared exponents
    v_max     largest exponent (0 for n = 1)
    """

    tau: int
    omega: int
    big_omega: int
    omega2: int
    v_max: int


def _is_prime(n: int) -> bool:
    """Miller-Rabin on an n > 1 with no prime factor below 1000, so odd and coprime to each witness."""
    rounds, limbs = len(_MR_WITNESSES), -(-n.bit_length() // 64)
    work = "factor: Miller-Rabin: {} rounds x {}^3 limbs"
    check_budget(work, rounds * limbs**3, _MR_MAX_WORK, rounds, limbs)
    d = n - 1
    s = (d & -d).bit_length() - 1
    d >>= s
    for a in _MR_WITNESSES:
        x = pow(a, d, n)
        if x == 1 or x == n - 1:
            continue
        for _ in range(s - 1):
            x = x * x % n
            if x == n - 1:
                break
        else:
            return False
    return True


def check_budget(work: str, amount: int, budget: int, *args: object) -> None:
    """Refuse amount units of work past budget; work.format(*args) names the
    measure, and is written only on refusal."""
    if amount > budget:
        text = work.format(*map(_num, args))
        raise ResourceLimitError(f"{text} = {_num(amount)} exceeds budget {budget}")


def _rho_split(n: int) -> int:
    """Deterministic Pollard rho (Floyd cycle finding), n an odd composite > 1;
    a cycle that closes on n itself moves on to the next constant c.  Each
    step is charged limbs(n)^2 of the _RHO_MAX_WORK budget."""
    limbs = -(-n.bit_length() // 64)
    steps = _RHO_MAX_WORK // limbs**2
    c, x, y = 1, 2, 2
    for _ in range(steps):
        x = (x * x + c) % n
        y = (y * y + c) % n
        y = (y * y + c) % n
        d = math.gcd(abs(x - y), n)
        if d == n:
            c, x, y = c + 1, 2, 2
        elif d != 1:
            return d
    raise ResourceLimitError(
        f"factor: rho on {_num(n)} passed {steps} steps of {limbs}^2 limb products,"
        f" budget {_RHO_MAX_WORK}"
    )


def _factor_into(m: int, counts: dict[int, int]) -> None:
    """Add the prime factors of m > 1, which has no prime factor below 1000."""
    if _is_prime(m):
        counts[m] = counts.get(m, 0) + 1
        return
    d = _rho_split(m)
    _factor_into(d, counts)
    _factor_into(m // d, counts)


def factor(n: int) -> Factorization:
    """Factor n >= 1 exactly.

    Trial division by the primes below 1000, then deterministic Miller-Rabin
    plus Pollard rho on the cofactor, so word-sized inputs are fine.
    """
    if n < 1:
        raise DomainError(f"factor: n must be a positive integer, got {_num(n)}")
    counts: dict[int, int] = {}
    m = n
    for p in _SMALL_PRIMES:
        if p * p > m:
            break
        while m % p == 0:
            counts[p] = counts.get(p, 0) + 1
            m //= p
    if m >= _TRIAL_LIMIT**2:
        _factor_into(m, counts)
    elif m > 1:
        counts[m] = 1
    return Factorization(n, tuple(sorted(counts.items())))


def arith_stats(f: Factorization) -> ArithStats:
    tau = 1
    big = 0
    sq = 0
    vmax = 0
    for _, v in f.parts:
        tau *= v + 1
        big += v
        sq += v * v
        vmax = max(vmax, v)
    return ArithStats(tau, len(f.parts), big, sq, vmax)


def divisors(f: Factorization) -> tuple[int, ...]:
    """All divisors of n in increasing order (length tau(n))."""
    check_budget("divisors: tau({})", arith_stats(f).tau, _MAX_DIVISORS, f.n)
    divs = [1]
    for p, v in f.parts:
        powers = [p**e for e in range(1, v + 1)]
        divs += [d * q for q in powers for d in divs]
    divs.sort()
    return tuple(divs)


def kappa(f: Factorization, j: int) -> int:
    """Number of ordered j-tuples of pairwise coprime divisors: prod (j*v+1)."""
    if j < 1:
        raise DomainError(f"kappa: j must be >= 1, got {_num(j)}")
    out = 1
    for _, v in f.parts:
        out *= j * v + 1
    return out


class DivisorContext:
    """Everything one n needs, each piece computed at most once.

    The arithmetic is computed here on first use; relations and regmaps keep
    their own per-n results (pair sums, map tables) through memo().  A
    context lives for one n only, so nothing is kept from one n to the next.
    """

    def __init__(self, n: int) -> None:
        self.n = n
        self._memo: dict = {}

    @cached_property
    def factorization(self) -> Factorization:
        return factor(self.n)

    @cached_property
    def stats(self) -> ArithStats:
        return arith_stats(self.factorization)

    @cached_property
    def divs(self) -> tuple[int, ...]:
        return divisors(self.factorization)

    def kappa(self, j: int) -> int:
        return self.memo(("kappa", j), lambda: kappa(self.factorization, j))

    def memo(self, key: object, compute: Callable[[], T]) -> T:
        """compute() on the first call for key; the kept value after that."""
        if key not in self._memo:
            self._memo[key] = compute()
        return self._memo[key]


def context_of(n: int, ctx: DivisorContext | None) -> DivisorContext:
    """ctx, refused unless it is a context of n; a new context of n for None."""
    if ctx is not None and ctx.n != n:
        raise DomainError(f"a DivisorContext of {_num(ctx.n)} was given for n = {_num(n)}")
    return ctx or DivisorContext(n)


def coprime_tuples(f: Factorization, j: int) -> Iterator[tuple[int, ...]]:
    """Stream every ordered j-tuple of pairwise coprime divisors of n.

    Exactly kappa(f, j) tuples, one per pick of a choice for each prime power
    p^v of n: unassigned first, then coordinate 1..j with exponent 1..v.  The
    first prime varies slowest.  Refusals are raised at the call, not lazily.

    The tuples of a prefix and of a suffix of the primes, about sqrt(kappa)
    each, are listed once; each tuple is a prefix tuple times a suffix tuple,
    coordinatewise, so the stream holds O(sqrt(kappa)) tuples.
    """
    if j < 1:
        raise DomainError(f"coprime_tuples: j must be >= 1, got {_num(j)}")
    total = kappa(f, j)
    check_budget("coprime_tuples: kappa_{}({})", total, _MAX_TUPLES, j, f.n)
    # Split where the prefix's tuple count is nearest sqrt(kappa); a tie
    # keeps the longer suffix, which is the loop that runs in C.
    sizes = list(itertools.accumulate((j * v + 1 for _, v in f.parts), operator.mul, initial=1))
    k = min(range(len(sizes)), key=lambda i: max(sizes[i], total // sizes[i]))
    prefix = _tuples_of(f.parts[:k], j)
    columns = list(zip(*_tuples_of(f.parts[k:], j)))

    def tuples() -> Iterator[tuple[int, ...]]:
        for head in prefix:
            yield from zip(*[map(q.__mul__, col) for q, col in zip(head, columns)])

    return tuples()


def _tuples_of(parts: tuple[tuple[int, int], ...], j: int) -> list[tuple[int, ...]]:
    """Every coprime j-tuple over the prime powers parts, in coprime_tuples' order."""
    out = [(1,) * j]
    for p, v in parts:
        # (coordinate, factor) picks; "unassigned" multiplies coordinate 0 by 1.
        picks = [(0, 1)] + [(i, p**e) for i in range(j) for e in range(1, v + 1)]
        out = [t[:i] + (t[i] * q,) + t[i + 1 :] for t in out for i, q in picks]
    return out
