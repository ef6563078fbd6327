"""Cohomology of twisted symmetric powers on the projectivized null cone.

Walks the combinatorial algorithm (rho-shift, sort, count inversions) on a
few weights by hand, then prints the full table of S^d(G)(b) for small n.
"""

from liouville import bott, weights

n = 4

print("step-by-step on a single weight")
a = (0, 0, -3, 1)
print("  weight:", a)
res = bott.bott_cohomology(a)
if res is None:
    print("  no cohomology (repetition after the rho-shift)")
else:
    deg, lam = res
    print(f"  survives in degree {deg} with dominant weight {lam},"
          f" dim {weights.weyl_dim(lam)}")

print()
print(f"full table of S^d(G)(b) on the projectivized cone, n = {n}")
print(f"{'d':>3} {'b':>3}  cohomology")
for d in range(7):
    for b in (-1, 1):
        res = bott.sdg_cohomology_on_P(n, d, b)
        if res is None:
            desc = "zero"
        else:
            i, lam = res
            desc = f"H^{i} = Schur functor of weight {lam}, " \
                   f"dim {weights.weyl_dim(lam)}"
        print(f"{d:>3} {b:>3}  {desc}")

print()
print("restriction to the smooth quadric (long exact sequence bookkeeping)")
for d in range(6):
    print(f"  d = {d}:", bott.les_restriction_to_Q(n, d))
