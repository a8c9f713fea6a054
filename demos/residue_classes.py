"""Divisors in residue classes: second moments, exponential sums, and the
coprime split that controls them.
"""

import cmath
import math

import divrel as dr


def exp_sum(n: int, theta: float) -> complex:
    """Divisor exponential sum W(theta): sum over d | n of exp(2*pi*i*theta*d)."""
    return sum(cmath.exp(2j * math.pi * theta * d) for d in dr.divisors(dr.factor(n)))


print("lambda(t) counts divisors in class t mod q; H is the second moment.")
profile = dr.residue_profile(12, 5)
print(f"  n=12, q=5: counts by class {dict((t + 1, c) for t, c in enumerate(profile.counts) if c)}, "
      f"H = {profile.h_value}")

print("\nH(n, q) collapses to tau(n) once q exceeds n (all divisors distinct):")
for q in (7, 11, 13, 50):
    try:
        print(f"  q={q}: H = {dr.residue_profile(12, q).h_value}")
    except dr.DomainError as exc:
        print(f"  q={q}: rejected ({exc})")

print("\nH can also be reached through the divisor exponential sum W(theta):")
n, q = 12, 5
w_avg = sum(abs(exp_sum(n, a / q)) ** 2 for a in range(1, q + 1)) / q
print(f"  mean of |W(a/q)|^2 over a = 1..q: {w_avg:.6f} (equals H = "
      f"{dr.residue_profile(n, q).h_value})")

print("\nRatio record for the second-moment envelope "
      "(tau + tau^(2-4*eta)) * v_max * log(tau)^1.5:")
n = 2**6 * 3**4 * 5**3 * 7**2 * 11 * 13
for q in (17, 97, 251):
    (rec,) = dr.inequality_report(n, "thm4", q=q)
    print(f"  q={q:>3}: H = {rec.lhs:>6}, envelope = {math.exp(rec.log_rhs):>12.1f}")

print("\nThe split n = a*b behind that envelope (a small, tau(b) controlled):")
res = dr.thm4_split(n, 97)
print(f"  n = {n}, q = 97: a = {res.a}, b = {res.b}")
print(f"  eta = {res.eta:.4f}, epsilon = {res.epsilon:.4f}, "
      f"prime powers in b: {res.split_size}")
for rec in res.records:
    print(f"  {rec.bound_id}: lhs = {rec.lhs}, log margin = {rec.margin:.4f}")
