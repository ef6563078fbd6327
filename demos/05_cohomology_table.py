"""The assembled graded cohomology table and the n -> 2 continuity check.

H^0 is the finite conformal algebra in degrees 0..2, each row checked
against Liouville's closed form (at n = 2 by killing.ck_kernel); H^1
collects the cokernels of y_dq, each the binomial Pieri count, which
young_map.kernel_cokernel_dims checks by exact rank within the certified
range and reconf_table against Bott's Weyl dimensions. The tables are
printed by the CLI, as `liouville reconf` prints them.
"""

import sys

from liouville import cli, reconf


def reconf_cli(*argv):
    if cli.run(["reconf", *argv]):
        sys.exit(f"liouville reconf {' '.join(argv)} failed")


for n in (3, 4):
    reconf_cli("--n", str(n), "--dmax", "6", "--format", "pretty")
    print()

print("the same table in bundle indexing (H^1 entries shifted to d + 1)")
reconf_cli("--n", "3", "--dmax", "6", "--indexing", "bundle", "--format", "tsv")
print()

print("continuity in n: graded Hilbert series of H^0 and H^1")
report = reconf.continuity_report(range(2, 6), dmax=5)
for n, series in report.items():
    print(f"  n = {n}: h0 {series['h0']}, h1 {series['h1']}")
print("n = 2 keeps a 2-dimensional H^0 in every degree and H^1 = 0;")
print("n >= 3 truncates H^0 to degrees <= 2 and grows an H^1 tail.")
