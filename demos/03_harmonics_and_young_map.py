"""The vertical Young multiplication f |-> projection of f*q onto Sigma^{d,2}.

Realized on bidegree-(d, 2) polynomials in two vector variables (x, y) as
ker R, R = sum_i x_i d/dy_i, cut out by the sl_2 extremal projector. The
Casimir eigenvalues printed first still tell the three isotypic pieces of
S^d x S^2 apart. Injective for n >= 3; for n = 2 the kernel is
2-dimensional in every degree, matching the conformal Killing picture.
"""

from liouville import young_map
from liouville.weights import pad, sym_dim, weyl_dim

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
print("harmonic dims by the closed form dim S^m - dim S^(m-2);"
      " dim S^d is their sum")
n, d = 4, 5
parts = [sym_dim(n, m) - sym_dim(n, m - 2) for m in range(d, -1, -2)]
print(f"  n = {n}, d = {d}: {parts}, total {sum(parts)}")
