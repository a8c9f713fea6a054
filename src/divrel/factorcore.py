"""Integer factorization, divisor enumeration, and multiplicative statistics.

Everything downstream (relation counts, regular mappings, concentration
bounds) starts from the exact factorization produced here.  The module is
pure Python: every count is an exact Python integer.
"""

from __future__ import annotations

import itertools
import math
from dataclasses import dataclass
from fractions import Fraction
from functools import cached_property
from typing import Callable, Iterator, TypeVar

from .errors import DomainError, ResourceLimitError

# Size caps are configuration values, not hard constants; every consumer can
# pass its own cap.
DEFAULT_DIVISOR_CAP = 10**6
DEFAULT_TUPLE_CAP = 10**8

# factor() trial-divides by the primes below 1000; a cofactor left below
# 1000**2 is then 1 or a prime, and a larger one goes to Miller-Rabin and rho.
_TRIAL_LIMIT = 1000
_SMALL_PRIMES = tuple(
    p for p in range(2, _TRIAL_LIMIT) if all(p % q for q in range(2, math.isqrt(p) + 1))
)

# Deterministic Miller-Rabin witness set, valid far beyond 2**64.
_MR_WITNESSES = (2, 3, 5, 7, 11, 13, 17, 19, 23, 29, 31, 37)

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
    if n < 2:
        return False
    for p in _MR_WITNESSES:
        if n % p == 0:
            return n == p
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


def _rho_split(n: int) -> int:
    """Deterministic Pollard rho (Floyd cycle finding), n an odd composite > 1."""
    for c in range(1, 10_000):
        x = y = 2
        d = 1
        while d == 1:
            x = (x * x + c) % n
            y = (y * y + c) % n
            y = (y * y + c) % n
            d = math.gcd(abs(x - y), n)
        if d != n:
            return d
    raise RuntimeError(f"rho failed to split {n}")


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
        raise DomainError(f"factor: n must be a positive integer, got {n}")
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


def divisors(f: Factorization, cap: int | None = None) -> tuple[int, ...]:
    """All divisors of n in increasing order (length tau(n))."""
    limit = DEFAULT_DIVISOR_CAP if cap is None else cap
    if arith_stats(f).tau > limit:
        raise ResourceLimitError(
            f"divisors: tau({f.n}) = {arith_stats(f).tau} exceeds cap {limit}"
        )
    divs = [1]
    for p, v in f.parts:
        powers = [p**e for e in range(1, v + 1)]
        divs += [d * q for q in powers for d in divs]
    divs.sort()
    return tuple(divs)


def kappa(f: Factorization, j: int) -> int:
    """Number of ordered j-tuples of pairwise coprime divisors: prod (j*v+1)."""
    if j < 1:
        raise DomainError(f"kappa: j must be >= 1, got {j}")
    out = 1
    for _, v in f.parts:
        out *= j * v + 1
    return out


class DivisorContext:
    """Everything one n needs, each piece computed at most once.

    The arithmetic is computed here on first use; relations and regmaps keep
    their own per-n results (pair sums, map tables) through memo().  A
    context lives for one n only, so nothing is kept from one n to the next.
    cap is the divisor cap that divs is built under.
    """

    def __init__(self, n: int, cap: int | None = None) -> None:
        self.n = n
        self.cap = cap
        self._memo: dict = {}

    @cached_property
    def factorization(self) -> Factorization:
        return factor(self.n)

    @cached_property
    def stats(self) -> ArithStats:
        return arith_stats(self.factorization)

    @cached_property
    def divs(self) -> tuple[int, ...]:
        return divisors(self.factorization, self.cap)

    def kappa(self, j: int) -> int:
        return self.memo(("kappa", j), lambda: kappa(self.factorization, j))

    def memo(self, key: object, compute: Callable[[], T]) -> T:
        """compute() on the first call for key; the kept value after that."""
        if key not in self._memo:
            self._memo[key] = compute()
        return self._memo[key]


def signature(f: Factorization) -> tuple[int, ...]:
    """Exponent multiset sorted non-increasingly; blind to which primes occur."""
    return tuple(sorted((v for _, v in f.parts), reverse=True))


def coprime_tuples(
    f: Factorization, j: int, cap: int | None = None
) -> Iterator[tuple[int, ...]]:
    """Stream every ordered j-tuple of pairwise coprime divisors of n.

    Exactly kappa(f, j) tuples, one per pick of a choice for each prime power
    p^v of n: unassigned first, then coordinate 1..j with exponent 1..v.  The
    first prime varies slowest.  Refusals are raised at the call, not lazily.
    """
    if j < 1:
        raise DomainError(f"coprime_tuples: j must be >= 1, got {j}")
    limit = DEFAULT_TUPLE_CAP if cap is None else cap
    total = kappa(f, j)
    if total > limit:
        raise ResourceLimitError(
            f"coprime_tuples: kappa_{j}({f.n}) = {total} exceeds cap {limit}"
        )
    # (coordinate, factor) picks; "unassigned" multiplies coordinate 0 by 1.
    choices = [
        [(0, 1)] + [(i, p**e) for i in range(j) for e in range(1, v + 1)] for p, v in f.parts
    ]

    def tuples() -> Iterator[tuple[int, ...]]:
        for picks in itertools.product(*choices):
            coords = [1] * j
            for i, q in picks:
                coords[i] *= q
            yield tuple(coords)

    return tuples()


def t_weight(f: Factorization, d: int) -> Fraction:
    """Reciprocal-exponent weight: prod over primes p | d of 1/v where p^v || n.

    Summing prod_i t_weight(d_i) over the coprime j-tuples gives exactly
    (j+1)^omega(n), which the tests exploit as an exact rational oracle.
    """
    if d < 1 or f.n % d != 0:
        raise DomainError(f"t_weight: {d} does not divide {f.n}")
    w = Fraction(1)
    for p, v in f.parts:
        if d % p == 0:
            w *= Fraction(1, v)
    return w
