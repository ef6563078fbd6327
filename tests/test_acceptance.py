"""Acceptance suite: one test per headline claim, with timing budgets.

Every check is exact (integer/rational arithmetic); a "pass" means exact
equality of the computed and expected values within the stated runtime
budget. Each test prints a single PASS/FAIL line (visible under -s or -rP).
"""

import random
import time
from fractions import Fraction
from itertools import product

from liouville import bott, cech, killing, reconf, young_map
from liouville.polyspaces import Poly, QuadraticForm, monomials
from polyref import ref_laplacian
from liouville.weights import pad, weyl_dim


def report(num, desc, elapsed, limit, ok):
    status = "PASS" if ok else "FAIL"
    print(f"[{status}] criterion {num}: {desc} "
          f"({elapsed:.2f}s, budget {limit:g}s)")
    assert ok, f"criterion {num} failed: {desc}"
    assert elapsed < limit, (
        f"criterion {num} exceeded budget: {elapsed:.2f}s >= {limit}s")


def dualize(lam):
    """Highest weight of the dual representation: reverse and negate."""
    return tuple(-x for x in reversed(lam))


def twisted_table_expected(n, d, b):
    """The eight statement rows for S^d(G)(b) on the projectivized cotangent
    space: which single cohomology degree survives, and with what weight."""
    if b == -1:
        if d == 0:
            return None
        return 1, dualize(pad((d - 1,), n))
    if d == 0:
        return 0, dualize(pad((1,), n))
    if d == 1:
        return 0, dualize(pad((1, 1), n))
    if d == 2:
        return None
    return 1, dualize(pad((d - 1, 2), n))


def test_criterion_1_twisted_sheaf_table():
    t0 = time.perf_counter()
    ok = True
    for n in (3, 4, 5, 6):
        for b in (-1, 1):
            for d in range(11):
                gc = bott.sdg_cohomology_on_P(n, d, b)
                ok = ok and gc == twisted_table_expected(n, d, b)
    report(1, "twisted symmetric-power cohomology table, n in 3..6, "
              "b = +-1, d <= 10", time.perf_counter() - t0, 1.0, ok)


def test_criterion_2_h0_is_conformal_algebra():
    t0 = time.perf_counter()
    ok = True
    for n in (3, 4, 5):
        table = reconf.reconf_table(n, 3)
        ok = ok and reconf.h0_total(table) == (n + 2) * (n + 1) // 2
        graded = [table[d]["h0"] for d in range(3)]
        ok = ok and graded == [n, n * (n - 1) // 2 + 1, n]
        ok = ok and graded == [len(killing.ck_kernel(n, d)) for d in range(3)]
    report(2, "H^0 total (n+2)(n+1)/2 with grading (n, n(n-1)/2+1, n), "
              "n in 3..5", time.perf_counter() - t0, 10.0, ok)


H1_RANGE = [(3, 2), (3, 3), (3, 4), (3, 5),
            (4, 2), (4, 3), (4, 4), (4, 5),
            (5, 2), (5, 3)]


def test_criterion_3_h1_injectivity_ranks():
    t0 = time.perf_counter()
    ok = True
    for n, d in H1_RANGE:
        ker, coker = young_map.kernel_cokernel_dims(n, d)
        expected = weyl_dim(pad((d, 2), n)) - weyl_dim(pad((d,), n))
        ok = ok and ker == 0 and coker == expected
    report(3, "y_dq injective with exact cokernel rank over "
              f"{len(H1_RANGE)} (n, d) pairs", time.perf_counter() - t0,
           120.0, ok)


def test_criterion_4_no_higher_cohomology():
    t0 = time.perf_counter()
    ok = True
    for n in (3, 4, 5):
        for d in range(3):
            ok = ok and set(bott.les_restriction_to_Q(n, d)) <= {0}
    for n, d in H1_RANGE:
        ok = ok and set(bott.les_restriction_to_Q(n, d + 1)) <= {1}
    for n, dmax in ((3, 6), (4, 5), (5, 3)):
        for row in reconf.reconf_table(n, dmax).values():
            ok = ok and set(row) == {"h0", "h1"}
    report(4, "no H^i contribution for i >= 2 across the assembled range",
           time.perf_counter() - t0, 120.0, ok)


def test_criterion_5_two_dimensional_case():
    t0 = time.perf_counter()
    ok = True
    for d in range(2, 7):
        ok = ok and young_map.kernel_cokernel_dims(2, d) == (2, 0)
    for d in range(7):
        ok = ok and len(killing.ck_kernel(2, d)) == 2
    report(5, "n = 2: ker y_dq = 2, coker = 0 (d in 2..6); conformal "
              "Killing kernel = 2 (d in 0..6)", time.perf_counter() - t0,
           5.0, ok)


def test_criterion_6_cech_exhaustive():
    t0 = time.perf_counter()
    ok = True
    for n in (2, 3, 4):
        for m in product(range(-3, 4), repeat=n):
            _, coh = cech.cech_slice(n, m)
            got = {i: dim for i, dim in enumerate(coh) if dim}
            ok = ok and got == cech.closed_form(n, m)
    report(6, "brute-force Cech ranks match the closed form, n <= 4, "
              "|m_i| <= 3", time.perf_counter() - t0, 30.0, ok)


def test_criterion_7_so_np2_identification():
    t0 = time.perf_counter()
    ok = True
    for n in range(3, 9):
        killing.so_np2_isomorphism(n)  # raises ArithmeticError on mismatch
        dim = (n + 2) * (n + 1) // 2
        jacobi_ok, witness = killing.check_jacobi(
            killing.so_structure_constants(n), dim)
        ok = ok and jacobi_ok and witness is None
    report(7, "conformal algebra matches so(n+2): structure constants and "
              "Jacobi, n in 3..8", time.perf_counter() - t0, 10.0, ok)


def test_criterion_8_oracle_equivalence():
    t0 = time.perf_counter()
    ok = True
    for n in (2, 3):
        rank, y_rank = young_map.young_symmetrizer_oracle((2, 2), n)
        ker, _ = young_map.kernel_cokernel_dims(n, 2)
        sym = len(monomials(n, 2))
        ok = ok and rank == weyl_dim(pad((2, 2), n))
        ok = ok and y_rank == sym - ker
    report(8, "Young-symmetrizer oracle agrees with the Casimir projector "
              "for y_2q, n in 2..3", time.perf_counter() - t0, 60.0, ok)


def seeded_form(n, rng):
    """A nondegenerate symmetric rational form on C^n, drawn from rng."""
    while True:
        mat = [[Fraction(0)] * n for _ in range(n)]
        for i in range(n):
            for j in range(i, n):
                mat[i][j] = mat[j][i] = Fraction(rng.randint(-4, 4),
                                                 rng.randint(1, 5))
        try:
            return QuadraticForm(mat)
        except ValueError:
            continue


def test_criterion_9_kernel_membership():
    t0 = time.perf_counter()
    ok = True
    rng = random.Random(20260826)
    forms = (QuadraticForm.standard(3), seeded_form(3, rng))
    for d in (2, 3):
        basis = monomials(3, d)
        for _ in range(100):
            coeffs = {}
            while not coeffs:
                coeffs = {e: Fraction(c) for e in basis
                          if (c := rng.randint(-3, 3))}
            f = Poly(3, d, coeffs)
            for q in forms:
                ok = ok and not young_map.y_dq(f, q).is_zero()
    for q in (QuadraticForm.standard(2), seeded_form(2, rng)):
        for d in (2, 3, 4):
            kernel = young_map.y_dq_kernel(2, d, q)
            ok = ok and len(kernel) == 2
            for f in kernel:
                ok = ok and young_map.y_dq(f, q).is_zero()
                ok = ok and not ref_laplacian(f.coeffs, q)
    report(9, "200 random f (n = 3) are outside ker y_dq under two forms; "
              "every ker y_dq element (n = 2) is mapped to 0 and is "
              "q-harmonic", time.perf_counter() - t0, 60.0, ok)


def test_criterion_10_graded_truncations_only():
    # everything here is a finite graded slice: table builders demand an
    # explicit degree or box bound, and refuse to run without one
    t0 = time.perf_counter()
    ok = True
    for call in (lambda: reconf.reconf_table(4),
                 lambda: cech.punctured_affine_table(3),
                 lambda: reconf.continuity_report([3, 4])):
        try:
            call()
            ok = False
        except TypeError:
            pass
    report(10, "aggregate objects exposed only through bounded graded "
               "truncations", time.perf_counter() - t0, 5.0, ok)
