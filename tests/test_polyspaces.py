import random
from fractions import Fraction

import pytest

from liouville import linalg, polyspaces
from liouville.polyspaces import (Poly, QuadraticForm, harmonic_dim,
                                  laplacian_q, monomials, restrict_to_plane)


def dense(v, size):
    """A sparse {column: value} vector as a dense list of length `size`."""
    return [v.get(j, Fraction(0)) for j in range(size)]


def test_quadratic_form_rejects_degenerate_and_asymmetric():
    with pytest.raises(ValueError):
        QuadraticForm([[1, 0], [0, 0]])
    with pytest.raises(ValueError):
        QuadraticForm([[1, 2], [3, 1]])


class TestLazyInverse:
    def test_standard_form_runs_no_rref(self, monkeypatch):
        calls = []
        rref = linalg.rref

        def counted(rows):
            calls.append(rows)
            return rref(rows)

        monkeypatch.setattr(linalg, "rref", counted)
        q = QuadraticForm.standard(5)
        assert calls == []
        assert q.inverse == q.matrix
        assert q.inverse is q.inverse
        assert len(calls) == 1

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
        assert QuadraticForm(matrix).inverse == inverse


def mult_by_q_columns(n, d, q):
    """Sparse columns of multiplication by q : S^d -> S^{d+2}."""
    src = monomials(n, d)
    dst = {e: i for i, e in enumerate(monomials(n, d + 2))}
    cols = []
    for e in src:
        img = q.as_poly() * Poly.monomial(n, e)
        cols.append({dst[k]: c for k, c in img.coeffs.items()})
    return cols, src


class TestMultByQ:
    def test_constant(self):
        q = QuadraticForm.standard(3)
        one = Poly(3, 0, {(0, 0, 0): 1})
        assert q.as_poly() * one == q.as_poly()

    def test_linear(self):
        q = QuadraticForm.standard(2)
        z1 = Poly.variable(2, 0)
        assert q.as_poly() * z1 == Poly(2, 3, {(3, 0): 1, (1, 2): 1})

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
            out = laplacian_q(q.as_poly(), q)
            assert out == Poly(n, 0, {(0,) * n: 2 * n})

    def test_mixed_monomial_harmonic(self):
        q = QuadraticForm.standard(3)
        f = Poly(3, 2, {(1, 1, 0): 1})
        assert laplacian_q(f, q).is_zero()

    def test_difference_of_squares_harmonic(self):
        q = QuadraticForm.standard(3)
        f = Poly(3, 2, {(2, 0, 0): 1, (0, 2, 0): -1})
        assert laplacian_q(f, q).is_zero()

    def test_sl2_commutation(self):
        # Delta(q f) - q Delta(f) == (4d + 2n) f, exactly
        rng = random.Random(5)
        for n in range(1, 5):
            q = QuadraticForm.standard(n)
            for d in range(7):
                coeffs = {e: Fraction(rng.randint(-4, 4))
                          for e in monomials(n, d)}
                f = Poly(n, d, coeffs)
                qp = q.as_poly()
                lhs = laplacian_q(qp * f, q) - qp * laplacian_q(f, q)
                assert lhs == f.scale(4 * d + 2 * n)


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
        cols, src = polyspaces.laplacian_columns(3, 3, q)
        basis = [Poly(3, 3, dict(zip(src, dense(v, len(src)))))
                 for v in linalg.nullspace(cols)]
        assert len(basis) == 7
        for f in basis:
            assert laplacian_q(f, q).is_zero()


class TestSubstitute:
    def test_rejects_wrong_number_of_forms(self):
        f = Poly(3, 2, {(1, 1, 0): 1})
        with pytest.raises(ValueError):
            f.substitute([Poly.variable(2, 0), Poly.variable(2, 1)])

    def test_rejects_forms_in_different_rings(self):
        f = Poly(2, 1, {(1, 0): 1})
        with pytest.raises(ValueError):
            f.substitute([Poly.variable(2, 0), Poly.variable(3, 0)])

    def test_swap_of_variables(self):
        f = Poly(2, 3, {(2, 1): 3, (0, 3): -1})
        swap = [Poly.variable(2, 1), Poly.variable(2, 0)]
        assert f.substitute(swap) == Poly(2, 3, {(1, 2): 3, (3, 0): -1})


class TestRestrictToPlane:
    def test_coordinate_plane(self):
        f = Poly(3, 2, {(2, 0, 0): 1})
        got = restrict_to_plane(f, (1, 0, 0), (0, 1, 0))
        assert got == Poly(2, 2, {(2, 0): 1})

    def test_q_restricts_to_gram(self):
        q = QuadraticForm.standard(3)
        got = restrict_to_plane(q.as_poly(), (1, 0, 0), (0, 1, 0))
        assert got == Poly(2, 2, {(2, 0): 1, (0, 2): 1})
        gram = polyspaces.restricted_form(q, (1, 0, 0), (0, 1, 0))
        assert gram.matrix == QuadraticForm.standard(2).matrix

    def test_rejects_dependent_vectors(self):
        f = Poly(3, 1, {(1, 0, 0): 1})
        with pytest.raises(ValueError):
            restrict_to_plane(f, (1, 2, 0), (2, 4, 0))

    def test_commutes_with_mult_by_q(self):
        rng = random.Random(11)
        n = 4
        q = QuadraticForm.standard(n)
        for _ in range(10):
            e1 = [rng.randint(-3, 3) for _ in range(n)]
            e2 = [rng.randint(-3, 3) for _ in range(n)]
            if linalg.rank([e1, e2]) < 2:
                continue
            f = Poly(n, 3, {e: Fraction(rng.randint(-3, 3))
                            for e in monomials(n, 3)})
            lhs = restrict_to_plane(q.as_poly() * f, e1, e2)
            q_e = polyspaces.restricted_form(q, e1, e2)
            rhs = q_e.as_poly() * restrict_to_plane(f, e1, e2)
            assert lhs == rhs
