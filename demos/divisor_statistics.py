"""Tour of the arithmetic layer: factorizations, divisor statistics, and
ordered pairwise-coprime tuple counts.
"""

from fractions import Fraction

import divrel as dr


def t_weight(f: dr.Factorization, d: int) -> Fraction:
    """Reciprocal-exponent weight: prod over primes p | d of 1/v where p^v || n."""
    w = Fraction(1)
    for p, v in f.parts:
        if d % p == 0:
            w *= Fraction(1, v)
    return w


print("Factorizations and the statistics the rest of the library runs on:")
for n in (360, 1001, 2**61 - 1):
    f = dr.factor(n)
    s = dr.arith_stats(f)
    print(
        f"  n={n}: parts={f.parts}, tau={s.tau}, omega={s.omega}, "
        f"Omega={s.big_omega}, Omega2={s.omega2}, v_max={s.v_max}"
    )

print("\nkappa_j(n) counts ordered j-tuples of pairwise coprime divisors.")
print("Each prime power of n is claimed by at most one coordinate, so the")
print("count is a product of (j*v + 1) factors and never needs enumeration:")
for n in (12, 360):
    f = dr.factor(n)
    row = ", ".join(f"kappa_{j} = {dr.kappa(f, j)}" for j in (1, 2, 3))
    print(f"  n={n}: {row}")

print("\nThe stream enumerator agrees with the closed form:")
f = dr.factor(60)
tuples = list(dr.coprime_tuples(f, 2))
print(f"  n=60: stream produced {len(tuples)} pairs, kappa_2 = {dr.kappa(f, 2)}")
print(f"  first few in enumeration order: {tuples[:6]}")

print("\nReciprocal-exponent weights T(d) satisfy an exact rational identity:")
print("summing prod T(d_i) over coprime j-tuples gives (j+1)^omega(n).")
for n in (12, 540):
    f = dr.factor(n)
    total = Fraction(0)
    for d1, d2 in dr.coprime_tuples(f, 2):
        total += t_weight(f, d1) * t_weight(f, d2)
    omega = dr.arith_stats(f).omega
    print(f"  n={n}: sum = {total}, 3^omega = {3**omega}")
