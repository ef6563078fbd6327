import random
from fractions import Fraction

import pytest

from liouville import bott, killing, weights
from liouville.killing import PolyVectorField, bracket, ck_kernel, ck_operator
from liouville.polyspaces import Poly, QuadraticForm


def dense_matrix(entries, size):
    """A matrix given as nonzero entries {(i, j): x}, as dense rows."""
    return [[entries.get((i, j), 0) for j in range(size)] for i in range(size)]


def entries(m):
    """A dense matrix's nonzero entries {(i, j): x}."""
    return {(i, j): x for i, row in enumerate(m) for j, x in enumerate(row)
            if x}


def so_gram(n):
    """Gram matrix of the split form on C^{n+2}: <u, v> = 1 in the corners,
    the identity block on e_1..e_n in the middle."""
    size = n + 2
    g = [[0] * size for _ in range(size)]
    g[0][size - 1] = g[size - 1][0] = 1
    for i in range(n):
        g[i + 1][i + 1] = 1
    return g


def so_matrices(n):
    """conformal_to_so_matrices(n) with each image as dense rows."""
    return [(name, dense_matrix(m, n + 2))
            for name, m in killing.conformal_to_so_matrices(n)]


def translation(n, i):
    return PolyVectorField([
        Poly(n, 0, {(0,) * n: 1}) if k == i else Poly(n, 0)
        for k in range(n)
    ])


class TestCkOperator:
    def test_translation_is_killing(self):
        t = ck_operator(translation(3, 0))
        assert t.is_zero()

    def test_dilation_is_killing(self):
        n = 3
        xi = PolyVectorField([Poly.variable(n, k) for k in range(n)])
        t = ck_operator(xi)
        assert t.is_zero()

    def test_shear_is_not(self):
        n = 2
        xi = PolyVectorField([Poly(n, 1), Poly.variable(n, 0)])
        t = ck_operator(xi)
        assert not t.is_zero()
        # a degree-1 field maps to bidegree (0, 2) in (x, y)
        assert t.n == 2 * n
        assert all(sum(k[:n]) == 0 and sum(k[n:]) == 2 for k in t.coeffs)

    def test_special_conformal_fields(self):
        n = 4
        for _, f in killing.named_conformal_basis(n):
            t = ck_operator(f)
            assert t.is_zero()


class TestCkKernel:
    def test_n3_dims(self):
        dims = [len(ck_kernel(3, d)) for d in range(5)]
        assert dims == [3, 4, 3, 0, 0]
        assert sum(dims) == 10  # dim so(5)

    def test_n2_every_degree(self):
        for d in range(7):
            assert len(ck_kernel(2, d)) == 2

    @pytest.mark.parametrize("n", [4, 5])
    def test_general_dims(self, n):
        assert len(ck_kernel(n, 0)) == n
        assert len(ck_kernel(n, 1)) == n * (n - 1) // 2 + 1
        assert len(ck_kernel(n, 2)) == n
        assert len(ck_kernel(n, 3)) == 0

    def test_kernel_members_satisfy_equation(self):
        for f in ck_kernel(3, 2):
            t = ck_operator(f)
            assert t.is_zero()


class TestBracket:
    def test_grading(self):
        n = 3
        basis = dict(killing.named_conformal_basis(n))
        br = bracket(basis["P1"], basis["K1"])
        assert br.degree == 1 and not br.is_zero()

    def test_p_k_contains_dilation(self):
        n = 3
        basis = dict(killing.named_conformal_basis(n))
        constants = killing.structure_constants(killing.named_conformal_basis(n))
        names = [name for name, _ in killing.named_conformal_basis(n)]
        i_p1, i_k1, i_d = names.index("P1"), names.index("K1"), names.index("D")
        c = constants[(i_p1, i_k1)]
        assert c.get(i_d) == 2

    def test_bracket_outside_the_basis_raises(self):
        # [P1, K1] has a dilation part, so the basis without D is not closed
        basis = [(name, f) for name, f in killing.named_conformal_basis(3)
                 if name != "D"]
        with pytest.raises(ArithmeticError, match=r"\[P1, K1\]"):
            killing.structure_constants(basis)

    def test_solve_names_the_pair_that_left_the_span(self):
        with pytest.raises(ArithmeticError,
                           match=r"\[P1, P1\] left the span of the basis"):
            killing._solve([{0: 1}], {(0, 0): {1: 1}}, ["P1"])

    def test_solve_reads_coordinates_off_any_keys(self):
        # keys need not be ints: 4 b = -2 (a) + 2 (a + 2 b), and 0 has none
        basis = [{"a": 1}, {"a": 1, "b": 2}]
        out = killing._solve(basis, {(0, 1): {"b": 4}, (1, 0): {}},
                             ["A", "B"])
        assert out == {(0, 1): {0: -2, 1: 2}, (1, 0): {}}

    def test_antisymmetry(self):
        n = 3
        basis = killing.named_conformal_basis(n)
        a, b = basis[0][1], basis[-1][1]
        lhs = bracket(a, b)
        rhs = bracket(b, a)
        assert not lhs.is_zero()
        assert all(x == y.scale(-1)
                   for x, y in zip(lhs.components, rhs.components))

    def test_closure_of_kernel(self):
        # bracket of conformal Killing fields stays conformal Killing
        n = 3
        fields = []
        for d in range(3):
            fields.extend(ck_kernel(n, d))
        for a in fields[:5]:
            for b in fields[-5:]:
                br = bracket(a, b)
                if br.is_zero():
                    continue
                t = ck_operator(br)
                assert t.is_zero()


class TestSoNp2:
    @pytest.mark.parametrize("n", range(3, 9))
    def test_isomorphism(self, n):
        report = killing.so_np2_isomorphism(n)
        assert report["dimension"] == (n + 2) * (n + 1) // 2
        assert report["structure_constants_match"]
        assert report["jacobi"] == "exact"

    def test_rejects_small_n(self):
        with pytest.raises(ValueError):
            killing.so_np2_isomorphism(2)

    def test_changed_structure_constant_is_caught(self, monkeypatch):
        names = [name for name, _ in killing.named_conformal_basis(3)]
        pk, d = (names.index("P1"), names.index("K1")), names.index("D")
        real = killing.so_structure_constants

        def changed(n):
            out = real(n)
            out[pk] = dict(out[pk])
            out[pk][d] += 1  # [P1, K1] = 2 D + ..., now 3 D + ...
            return out

        monkeypatch.setattr(killing, "so_structure_constants", changed)
        with pytest.raises(ArithmeticError,
                           match=r"structure constants differ on \[P1, K1\]"):
            killing.so_np2_isomorphism(3)

    def test_jacobi_catches_a_perturbed_constant(self):
        dim = 10
        table = killing.so_structure_constants(3)
        assert killing.check_jacobi(table, dim) == (True, None)
        table[(0, 1)] = {0: Fraction(1)}  # [P1, P2] = P1 instead of 0
        ok, triple = killing.check_jacobi(table, dim)
        assert not ok
        assert len(triple) == 3 and sorted(set(triple)) == list(triple)

    def test_jacobi_reads_the_reversed_pair(self):
        # so(3): [e0, e1] = e2, [e1, e2] = e0, [e0, e2] = -e1. The constant
        # of (0, 2) enters the one Jacobi sum only as [e2, e0], the
        # negated side of the table.
        table = {(0, 1): {2: 1}, (1, 2): {0: 1}, (0, 2): {1: -1}}
        assert killing.check_jacobi(table, 3) == (True, None)
        table[(0, 2)] = {1: -1, 0: 1}
        assert killing.check_jacobi(table, 3) == (False, (0, 1, 2))

    def test_non_killing_generator_is_caught(self, monkeypatch):
        real = killing.named_conformal_basis

        def patched(n):
            basis = real(n)
            x1 = Poly.variable(n, 0)
            # x1^2 d/dx1 in place of the last special conformal field
            basis[-1] = (basis[-1][0], PolyVectorField(
                [x1 * x1] + [Poly(n, 2) for _ in range(n - 1)]))
            return basis

        monkeypatch.setattr(killing, "named_conformal_basis", patched)
        with pytest.raises(ArithmeticError, match="K3 is not conformal Killing"):
            killing.so_np2_isomorphism(3)

    def test_translations_and_specials_are_transpose_dual_nilpotents(self):
        n = 3
        mats = dict(so_matrices(n))
        size = n + 2
        for i in range(1, n + 1):
            p = mats[f"P{i}"]
            k = mats[f"K{i}"]
            # K_i = -2 P_i^T under the split form's basis
            for r in range(size):
                for c in range(size):
                    assert k[r][c] == -2 * p[c][r]
            # nilpotency of the corner generators
            p2 = [[sum(p[a][t] * p[t][b] for t in range(size))
                   for b in range(size)] for a in range(size)]
            p3 = [[sum(p2[a][t] * p[t][b] for t in range(size))
                   for b in range(size)] for a in range(size)]
            assert any(any(row) for row in p2)
            assert not any(any(row) for row in p3)

    def test_images_are_antisymmetric_for_the_form(self):
        n = 4
        gram = so_gram(n)
        size = n + 2
        for _, m in so_matrices(n):
            # m^T G + G m = 0
            for a in range(size):
                for b in range(size):
                    lhs = sum(m[t][a] * gram[t][b] + gram[a][t] * m[t][b]
                              for t in range(size))
                    assert lhs == 0


def mat_comm(a, b):
    """Dense reference commutator ab - ba of square matrices."""
    size = len(a)
    ab = [[sum(a[i][k] * b[k][j] for k in range(size)) for j in range(size)]
          for i in range(size)]
    ba = [[sum(b[i][k] * a[k][j] for k in range(size)) for j in range(size)]
          for i in range(size)]
    return [[x - y for x, y in zip(r1, r2)] for r1, r2 in zip(ab, ba)]


class TestSparseCommutator:
    @pytest.mark.parametrize("n", [3, 4, 5, 6])
    def test_generators(self, n):
        mats = [m for _, m in so_matrices(n)]
        for a in mats:
            for b in mats:
                assert killing._comm(entries(a), entries(b)) \
                    == entries(mat_comm(a, b))

    def test_random_matrices_with_zero_rows(self):
        rng = random.Random(9)
        for _ in range(200):
            size = rng.randint(1, 6)
            a, b = ([[rng.randint(-2, 2) for _ in range(size)]
                     if rng.random() < 0.6 else [0] * size
                     for _ in range(size)] for _ in range(2))
            got = killing._comm(entries(a), entries(b))
            assert got == entries(mat_comm(a, b))
            assert all(got.values())


def test_cross_module_h0_grading():
    # ck_kernel dims per degree match the quadric restriction H^0 rows
    for n in range(3, 6):
        for d in range(3):
            les = bott.les_restriction_to_Q(n, d)
            assert les == {0: len(ck_kernel(n, d))}


def test_euler_characteristic_bookkeeping():
    # dim(S^2 x S^d) - dim(M* x S^{d+1}) == dim Sigma^{d,2}
    # by the two Pieri decompositions
    from liouville.weights import pad, weyl_dim
    for n in range(2, 6):
        for d in range(2, 7):
            s2sd = weyl_dim(pad((2,), n)) * weyl_dim(pad((d,), n))
            msd1 = n * weyl_dim(pad((d + 1,), n))
            assert s2sd - msd1 == weyl_dim(pad((d, 2), n))
