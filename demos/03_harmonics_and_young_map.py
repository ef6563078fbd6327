"""The vertical Young multiplication f |-> projection of f*q onto Sigma^{d,2}.

Realized on bidegree-(d, 2) polynomials in two vector variables (x, y) as
ker R, R = sum_i x_i d/dy_i, cut out by the sl_2 extremal projector. The
Casimir eigenvalues printed first still tell the three isotypic pieces of
S^d x S^2 apart. Injective for n >= 3; for n = 2 the kernel is
2-dimensional in every degree, matching the conformal Killing picture.
"""

from fractions import Fraction

from liouville import young_map
from liouville.polyspaces import Poly, QuadraticForm, harmonic_dim
from liouville.weights import pad, weyl_dim

print("Casimir eigenvalues separating the three isotypic pieces of"
      " S^d x S^2")
for n in (3, 4):
    for d in (2, 3, 4):
        vals = {lam: young_map.casimir_scalar(pad(lam, n), n)
                for lam in [(d + 2,), (d + 1, 1), (d, 2)]}
        print(f"  n = {n}, d = {d}: {vals}")

print()
print("exact kernel / cokernel of y_dq")
for n in (2, 3, 4):
    for d in (2, 3):
        ker, coker = young_map.kernel_cokernel_dims(n, d)
        target = weyl_dim(pad((d, 2), n))
        print(f"  n = {n}, d = {d}: ker {ker}, coker {coker}"
              f" (target dim {target})")

print()
print("the n = 2 kernel in degree 3, written out")
for f in young_map.y_dq_kernel(2, 3):
    print("  ", f)

print()
print("harmonic decomposition dim S^d = sum of harmonic dims")
n, d = 4, 5
parts = [harmonic_dim(n, d - 2 * j) for j in range(d // 2 + 1)]
print(f"  n = {n}, d = {d}: {parts}, total {sum(parts)}")

print()
print("the probe: restricting to random rational 2-planes")
g = Poly(3, 2, {(2, 0, 0): Fraction(1), (0, 2, 0): Fraction(-1)})
print("  x^2 - y^2 (n = 3, not in ker y_2q) passes the probe?",
      young_map.plane_harmonicity_test(g, seed=1))
for f in young_map.y_dq_kernel(2, 2):
    print(f"  kernel element {f} (n = 2) passes the probe?",
          young_map.plane_harmonicity_test(f))
