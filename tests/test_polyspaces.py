import random
from fractions import Fraction
from math import comb

import pytest

from liouville import linalg
from liouville.polyspaces import Poly, QuadraticForm, monomials
from polyref import ref_inverse, ref_laplacian, ref_mul, ref_scale, ref_sub


def test_quadratic_form_rejects_degenerate_and_asymmetric():
    with pytest.raises(ValueError):
        QuadraticForm([[1, 0], [0, 0]])
    with pytest.raises(ValueError):
        QuadraticForm([[1, 2], [3, 1]])


def test_floats_are_refused_and_rationals_kept_exact():
    # 0.1 is stored as its binary expansion 3602879701896397/2^55 if it
    # is let through, so both constructors refuse any float
    with pytest.raises(ValueError, match="float"):
        QuadraticForm([[0.1, 0], [0, 1]])
    with pytest.raises(ValueError, match="float"):
        Poly(2, 1, {(1, 0): 0.1})
    q = QuadraticForm([[Fraction(4, 2), Fraction(1, 3)], [Fraction(1, 3), 1]])
    assert q.matrix == [[2, Fraction(1, 3)], [Fraction(1, 3), 1]]
    assert [type(x) for x in q.matrix[0]] == [int, Fraction]
    f = Poly(2, 1, {(1, 0): Fraction(6, 3), (0, 1): Fraction(1, 10)})
    assert f.coeffs == {(1, 0): 2, (0, 1): Fraction(1, 10)}
    assert type(f.coeffs[1, 0]) is int


class TestLazyInverse:
    def test_standard_form_runs_no_rref(self, monkeypatch):
        # a form solves nothing when it is built: its nondegeneracy is
        # one linalg.rank, and no operator reads its inverse
        calls = []
        solve = linalg.solve

        def counted(columns, targets):
            calls.append(columns)
            return solve(columns, targets)

        monkeypatch.setattr(linalg, "solve", counted)
        QuadraticForm.standard(5)
        assert calls == []

    @pytest.mark.parametrize("matrix,inverse", [
        ([[1, 0, 0], [0, 1, 0], [0, 0, 1]],
         [[1, 0, 0], [0, 1, 0], [0, 0, 1]]),
        ([[1, 0, 0], [0, -2, 0], [0, 0, 3]],
         [[1, 0, 0], [0, Fraction(-1, 2), 0], [0, 0, Fraction(1, 3)]]),
        ([[2, Fraction(1, 2)], [Fraction(1, 2), 3]],
         [[Fraction(12, 23), Fraction(-2, 23)],
          [Fraction(-2, 23), Fraction(8, 23)]]),
    ], ids=["standard", "diagonal", "non-diagonal"])
    def test_inverse_values(self, matrix, inverse):
        # the reference inverse that ref_laplacian and the rotation
        # tests of young_map read
        assert ref_inverse(QuadraticForm(matrix).matrix) == inverse


def mult_by_q_columns(n, d, q):
    """Sparse columns of multiplication by q : S^d -> S^{d+2}."""
    src = monomials(n, d)
    dst = {e: i for i, e in enumerate(monomials(n, d + 2))}
    cols = []
    for e in src:
        img = ref_mul(q.as_poly().coeffs, {e: 1})
        cols.append({dst[k]: c for k, c in img.items()})
    return cols, src


def laplacian_columns(n, d, q):
    """Sparse columns of the reference Delta_q : S^d -> S^{d-2}, the
    oracle that the harmonic checks of y_dq's kernel read."""
    src = monomials(n, d)
    dst = {e: i for i, e in enumerate(monomials(n, max(d - 2, 0)))}
    return [{dst[k]: c for k, c in ref_laplacian({e: 1}, q).items()}
            for e in src], src


def harmonic_dim(n, d, q=None):
    """dim ker Delta_q on S^d, by linalg's rank of the reference columns."""
    cols, src = laplacian_columns(n, d, q or QuadraticForm.standard(n))
    return len(src) - linalg.rank_sparse(cols)


@pytest.mark.parametrize("n", range(1, 7))
def test_monomials_are_strictly_descending_lex(n):
    # grlex within one degree is descending lex: CK's elimination speed
    # and every bipoly_basis row numbering rest on this order
    for d in range(9):
        mons = monomials(n, d)
        assert len(mons) == comb(n + d - 1, d)
        assert all(len(e) == n and sum(e) == d for e in mons)
        assert all(a > b for a, b in zip(mons, mons[1:]))


class TestMultByQ:
    def test_constant(self):
        q = QuadraticForm.standard(3)
        one = {(0, 0, 0): 1}
        assert ref_mul(q.as_poly().coeffs, one) == q.as_poly().coeffs

    def test_linear(self):
        q = QuadraticForm.standard(2)
        z1 = {(1, 0): 1}
        assert ref_mul(q.as_poly().coeffs, z1) == {(3, 0): 1, (1, 2): 1}

    def test_injective_on_all_degrees(self):
        for n in range(1, 6):
            q = QuadraticForm.standard(n)
            for d in range(9):
                cols, src = mult_by_q_columns(n, d, q)
                assert linalg.rank_sparse(cols) == len(src)


class TestLaplacian:
    def test_of_q_itself_is_2n(self):
        for n in (2, 3, 4):
            q = QuadraticForm.standard(n)
            out = ref_laplacian(q.as_poly().coeffs, q)
            assert out == {(0,) * n: 2 * n}

    def test_mixed_monomial_harmonic(self):
        q = QuadraticForm.standard(3)
        assert ref_laplacian({(1, 1, 0): 1}, q) == {}

    def test_difference_of_squares_harmonic(self):
        q = QuadraticForm.standard(3)
        f = {(2, 0, 0): 1, (0, 2, 0): -1}
        assert ref_laplacian(f, q) == {}

    def test_sl2_commutation(self):
        # Delta(q f) - q Delta(f) == (4d + 2n) f, exactly
        rng = random.Random(5)
        for n in range(1, 5):
            q = QuadraticForm.standard(n)
            for d in range(7):
                f = {e: c for e in monomials(n, d)
                     if (c := Fraction(rng.randint(-4, 4)))}
                qp = q.as_poly().coeffs
                lhs = ref_sub(ref_laplacian(ref_mul(qp, f), q),
                              ref_mul(qp, ref_laplacian(f, q)))
                assert lhs == ref_scale(f, 4 * d + 2 * n)


class TestHarmonicDim:
    def test_n2_all_degrees(self):
        for d in range(1, 9):
            assert harmonic_dim(2, d) == 2

    def test_n3_d2(self):
        assert harmonic_dim(3, 2) == 5

    def test_constants(self):
        for n in range(1, 5):
            assert harmonic_dim(n, 0) == 1

    def test_decomposition_sum(self):
        # dim S^d == sum_k harmonic_dim(n, d - 2k)
        for n in range(1, 6):
            for d in range(9):
                total = sum(harmonic_dim(n, d - 2 * k)
                            for k in range(d // 2 + 1))
                assert total == len(monomials(n, d))

    def test_non_standard_form(self):
        q = QuadraticForm([[2, 1], [1, 3]])
        for d in range(1, 6):
            assert harmonic_dim(2, d, q) == 2

    def test_harmonic_basis_is_annihilated(self):
        q = QuadraticForm.standard(3)
        cols, src = laplacian_columns(3, 3, q)
        basis = [{src[j]: c for j, c in v.items()}
                 for v in linalg.nullspace(cols)]
        assert len(basis) == 7
        for f in basis:
            assert ref_laplacian(f, q) == {}

