"""Cech cohomology of punctured affine space, one multidegree at a time.

The coordinate-hyperplane cover splits the complex into finite slices
indexed by Laurent multidegree; each slice is a matter of counting index
subsets. Functions extend across the puncture (Hartogs) for n >= 2, and
the lost data reappears in top degree H^{n-1}.
"""

from liouville import cech

n = 3

print(f"single multidegree slices, n = {n}")
for m in [(2, 0, 1), (-1, -1, -1), (-2, 0, -1), (0, -1, -2)]:
    cochains, coh = cech.cech_slice(n, m)
    print(f"  m = {m}: cochain dims {cochains}, cohomology {coh}")

print()
print("exhaustive agreement with the closed form in a box (any mismatch"
      " raises)")
rows, totals = cech.punctured_affine_table(n, box=2)
print(f"  {len(rows)} nonzero slices; totals by total degree:")
for deg, by_i in sorted(totals.items()):
    print(f"    degree {deg:>3}: {by_i}")

print()
print("n = 2: functions still extend (Hartogs); the lost data is H^1, the"
      " doubly-negative quadrant")
rows2, _ = cech.punctured_affine_table(2, box=3)
h1 = sorted(m for m, i, d in rows2 if i == 1)
print(f"  {len(h1)} contributing multidegrees: {h1}")
