"""Explicit divisor maps and their regularity constants.

A map table sends pairwise-coprime divisor tuples to divisors coprime to
every argument.  Its constant k is the worst collision count when one
coordinate varies; small k forces small domains, which is what the bound
records at the end quantify.
"""

import math

import divrel as dr

print("The pair-sum map on n = 6 (entries (d1, d2) -> d1 + d2):")
table = dr.builtin_sum_map(6)
for tup, val in sorted(table.entries.items()):
    print(f"  {tup} -> {val}")
report = dr.check_regularity(table)
print(f"  k1={report.k1} k2={report.k2} k3={report.k3} "
      f"=> k={report.k}, k_strong={report.k_strong}")
print(f"  two-coordinate witness (condition 3): {report.witness3}")

print("\nSuccessor and midpoint maps on n = 60:")
for kind in ("successor", "midpoint-exact", "midpoint-floor"):
    t = dr.build_builtin(kind, 60)
    rep = dr.check_regularity(t)
    print(f"  {kind}: |U| = {dr.f_value(t)}, k = {rep.k}, k_strong = {rep.k_strong}")

print("\nDomain-size bounds for the sum map across a few n (all asserted):")
print(f"  {'n':>5} {'|U|':>4} {'thm1b':>8} {'thm2b':>8} {'c2':>8}")
for n in (6, 30, 210, 360, 1680):
    t = dr.builtin_sum_map(n)
    reg = dr.check_regularity(t)
    vals = []
    for bid in ("thm1b", "thm2b", "c2"):
        rec = dr.bound_check(t, bid, reg)
        vals.append(math.exp(rec.log_rhs))
    print(f"  {n:>5} {dr.f_value(t):>4} {vals[0]:>8.2f} {vals[1]:>8.2f} "
          f"{vals[2]:>8.2f}")

print("\nExhaustive maxima over ALL 1-regular arity-1 maps (tiny n only):")
for n in (2, 6, 12, 30):
    print(f"  exact_E({n}, j=1, k=1) = {dr.exact_E(n, 1, 1)}"
          f"   (kappa_1 = {dr.kappa(dr.factor(n), 1)})")
print("Relaxing k enlarges the best domain monotonically:")
print("  n=12:", [dr.exact_E(12, 1, k) for k in (1, 2, 3)])
