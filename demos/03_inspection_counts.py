"""How many inspections does it take to find k failed components?

While the system still works, exactly r - 1 components have lifetimes
strictly below the system lifetime.  Checking components one by one in a
fixed order, the inspection count N for finding k of the failed ones is a
distribution-free random variable: its pmf is exact rational arithmetic,
independent of the lifetime law.  This script prints the pmf and its mean
for two systems, then cross-checks against brute-force enumeration and
simulation.
"""

from fractions import Fraction

import ordstat as os_

for n, r, k in [(12, 5, 3), (12, 7, 2)]:
    cfg = os_.SystemConfig(n, r)
    pmf = os_.inspection_pmf(cfg, k)
    mean = os_.expected_inspections(pmf)
    print(f"n = {n}, system fails at failure #{r}, detect k = {k} failed components")
    print("  m    P{N = m}            decimal")
    for m, p in zip(pmf.support, pmf.probs):
        print(f"  {m:2d}   {str(p):>8s}   {float(p):14.5f}")
    print(f"  expected inspections: {mean} = {float(mean):.4f}\n")

print("Brute-force check (all C(n, r-1) failed-position sets, n = 6, r = 4, k = 2):")
cfg = os_.SystemConfig(6, 4)
exact = os_.inspection_pmf(cfg, 2)
brute = os_.exhaustive_inspection_pmf(cfg, 2)
for m in exact.support:
    marker = "ok" if exact.prob(m) == brute.prob(m) else "MISMATCH"
    print(f"  m = {m}: closed form {str(exact.prob(m)):>5s}   enumeration {str(brute.prob(m)):>5s}   {marker}")

print()
print("Distribution-freeness: simulated pmf under two different lifetime laws")
reps = 200_000
for model, label in [(os_.Exponential(1.0), "exponential(1)"), (os_.Weibull(2.0, 1.0), "weibull(2,1)")]:
    estimates = os_.mc_inspection_pmf(cfg, model, 2, reps, seed=7)
    cells = "  ".join(f"{m}:{est.estimate:.4f}" for m, est in estimates.items())
    print(f"  {label:15s} {cells}")
print("  exact          " + "  ".join(f"{m}:{float(exact.prob(m)):.4f}" for m in exact.support))

print()
print("The chance that j specific components all failed before the system:")
cfg = os_.SystemConfig(12, 5)
for j in range(1, cfg.r):
    print(f"  j = {j}: {os_.lambda_coeff(cfg, j)}")
