"""The assembled graded cohomology table and the n -> 2 continuity check.

H^0 is the finite conformal algebra in degrees 0..2, each row checked
against Liouville's closed form (at n = 2 by killing.ck_kernel); H^1
collects the cokernels of y_dq, each the binomial Pieri count, which
young_map.kernel_cokernel_dims checks by exact rank within the certified
range and reconf_table against Bott's Weyl dimensions.
"""

from liouville import reconf

for n in (3, 4):
    table = reconf.reconf_table(n, 6)
    print(reconf.table_to_pretty(n, table))
    print()

print("the same table in bundle indexing (H^1 entries shifted to d + 1)")
print(reconf.table_to_tsv(reconf.reconf_table(3, 6, indexing="bundle")))
print()

print("continuity in n: graded Hilbert series of H^0 and H^1")
report = reconf.continuity_report(range(2, 6), dmax=5)
for n, series in report.items():
    print(f"  n = {n}: h0 {series['h0']}, h1 {series['h1']}")
print("n = 2 keeps a 2-dimensional H^0 in every degree and H^1 = 0;")
print("n >= 3 truncates H^0 to degrees <= 2 and grows an H^1 tail.")
