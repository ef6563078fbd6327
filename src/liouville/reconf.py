"""Graded cohomology table of the derived conformal algebra of flat space.

Rows combine the quadric long-exact-sequence bookkeeping, on Bott answers
checked against the eight-case table `bott.sdg_table`, with the binomial
Pieri count of each cokernel, which `young_map.kernel_cokernel_dims`
checks by exact rank inside EXACT_RANGE; a disagreement of that count
with Bott's number, or of an H^0 row with Liouville's closed form, is a
hard failure. Default row indexing puts Coker(y_{d,q}) at degree d
("source" indexing); "bundle" indexing shifts it to d+1.
"""

from . import bott, killing, young_map
from .young_map import coker_dim_formula

# exact rank recomputation is enforced inside this envelope: every cell
# whose exact rank, from y_dq's closed form, costs at most 0.9 times that
# of (6, 4) through the extremal projector (median of paired runs in
# fresh processes, best of 5 each, on a 2-vCPU VM)
EXACT_RANGE = {3: 36, 4: 12, 5: 7, 6: 5, 7: 4, 8: 3, 9: 3,
               10: 2, 11: 2, 12: 2, 13: 2, 14: 2, 15: 2}


def h1_entry(n, d):
    """Cokernel dimension of y_{d,q}: the Pieri count `coker_dim_formula`.

    Inside EXACT_RANGE it is also recomputed by exact rank, which
    `young_map.kernel_cokernel_dims` checks against the count; beyond it
    the row is the count alone, compared with Bott by `reconf_table`.
    """
    if d <= EXACT_RANGE.get(n, 0):
        young_map.kernel_cokernel_dims(n, d)
    return coker_dim_formula(n, d)


def reconf_table(n, dmax, indexing="source"):
    """Cohomology table {d: {"h0": dim, "h1": dim}} for degrees 0..dmax.

    H^0 sits in degrees 0..2 (the conformal algebra, graded by field
    degree), each row checked against Liouville's closed form
    `killing.liouville_dim`; H^1 entries are Coker(y_{d,q}) at degree d
    ("source" indexing) or d+1 (bundle indexing); H^i = 0 for i >= 2,
    so the table has no other columns. Each H^1 row is `h1_entry`'s
    Pieri count, and its Bott comparison (bundle degree d+1) sets the
    Weyl dimensions of two answers pinned to `bott.sdg_table` against
    those binomials.
    """
    if n < 3 or dmax < 3:
        raise ValueError("need n >= 3 and dmax >= 3")
    if indexing not in ("source", "bundle"):
        raise ValueError(f"unknown indexing {indexing!r}")
    rows = {d: {"h0": 0, "h1": 0} for d in range(dmax + 1)}
    # H^0 from the restriction sequence, degrees 0..2 in bundle grading
    for d in range(3):
        h0 = bott.les_restriction_to_Q(n, d)[0]
        dim = killing.liouville_dim(n, d)
        if h0 != dim:
            raise ArithmeticError(f"restriction sequence at n={n}, d={d} "
                                  f"gives H^0 = {h0}, not Liouville's {dim}")
        rows[d]["h0"] = h0
    shift = 0 if indexing == "source" else 1
    for d in range(2, dmax + 1 - shift):
        coker = h1_entry(n, d)
        bott_h1 = bott.les_restriction_to_Q(n, d + 1)[1]
        if bott_h1 != coker:
            raise ArithmeticError(
                f"restriction sequence at n={n}, d={d + 1} gives H^1 = "
                f"{bott_h1} from Bott, not the formula's {coker}")
        rows[d + shift]["h1"] = coker
    return rows


def h0_total(table):
    return sum(r["h0"] for r in table.values())


def continuity_report(n_range, dmax):
    """Per-n Hilbert series of H^0 and H^1 graded dimensions.

    n=2 comes from the Killing kernel alone (H^1 vanishes identically),
    which `killing.ck_kernel` checks; n >= 3 from the assembled table
    (source indexing). The whole range and dmax are checked before any
    row is computed.
    """
    n_range = list(n_range)
    if dmax < 0:
        raise ValueError("need dmax >= 0")
    if not all(2 <= n <= 6 for n in n_range):
        raise ValueError("n_range must lie in [2, 6]")
    if len(set(n_range)) < len(n_range):
        raise ValueError("n_range repeats an n")
    report = {}
    for n in n_range:
        if n == 2:
            h0 = [len(killing.ck_kernel(2, d)) for d in range(dmax + 1)]
            h1 = [0] * (dmax + 1)
        else:
            table = reconf_table(n, max(dmax, 3))
            h0 = [table[d]["h0"] for d in range(dmax + 1)]
            h1 = [table[d]["h1"] for d in range(dmax + 1)]
        report[n] = {"h0": h0, "h1": h1}
    return report
