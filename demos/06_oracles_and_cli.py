"""Independent oracles and the command-line surface.

The Young-symmetrizer oracle rebuilds y_2q on honest tensor words (no
Casimir, no projector) and must agree rank-for-rank. It keys the rows of
c_lam by row orbit and builds sparse c_lam columns once, for the
column-strict words only: every other column is a signed copy of one of
them or zero. One call ranks them with linalg.rank_sparse and, for shape
(d,2), also ranks the tensor-word y-map on top of them. The CLI wraps
every capability with reproducible JSON output and strict exit codes.
"""

from liouville import cli, young_map
from liouville.polyspaces import monomials
from liouville.weights import pad, weyl_dim

print("symmetrizer rank vs the Weyl dimension formula")
for lam in [(2,), (1, 1), (2, 1), (2, 2)]:
    for n in (2, 3):
        r, _ = young_map.young_symmetrizer_oracle(lam, n)
        print(f"  shape {lam}, n = {n}: rank {r},"
              f" weyl {weyl_dim(pad(lam, n))}")

print()
print("tensor-word realization of y_2q against the projector realization")
for n in (2, 3):
    _, y_rank = young_map.young_symmetrizer_oracle((2, 2), n)
    ker, coker = young_map.kernel_cokernel_dims(n, 2)
    proj_rank = len(monomials(n, 2)) - ker
    print(f"  n = {n}: oracle y-rank {y_rank}, projector rank {proj_rank},"
          f" ker {ker}, coker {coker}")

print()
print("everything is also scriptable through the CLI (exit code 0/1/2)")
for argv in [["bott", "--weight", "0,0,-3,1"],
             ["reconf", "--n", "3", "--dmax", "5", "--format", "tsv"],
             ["selftest"]]:
    print(f"$ liouville {' '.join(argv)}")
    code = cli.run(argv)
    print(f"(exit {code})")
    print()
