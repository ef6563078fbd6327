import random
from fractions import Fraction

import pytest

from liouville import bott, killing, weights
from liouville.killing import PolyVectorField, bracket, ck_kernel, ck_operator
from liouville.polyspaces import Poly, QuadraticForm, monomials


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
        xi = PolyVectorField([Poly.monomial(n, e) for e in monomials(n, 1)])
        t = ck_operator(xi)
        assert t.is_zero()

    def test_shear_is_not(self):
        n = 2
        xi = PolyVectorField([Poly(n, 1), Poly.monomial(n, (1, 0))])
        t = ck_operator(xi)
        assert not t.is_zero()
        # a degree-1 field maps to bidegree (0, 2) in (x, y)
        assert t.n == 2 * n
        assert all(sum(k[:n]) == 0 and sum(k[n:]) == 2 for k in t.coeffs)

    def test_special_conformal_fields(self):
        # raises unless every named field is nonzero and conformal Killing
        killing._check_conformal(4, killing.named_conformal_basis(4))


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

    @pytest.mark.parametrize("n, m", [(4, 3), (3, 4)])
    def test_form_on_another_space_is_refused(self, n, m):
        q = QuadraticForm.standard(m)
        xi = PolyVectorField([Poly.monomial(n, e) for e in monomials(n, 1)])
        for call in (lambda: ck_operator(xi, q),
                     lambda: killing.ck_columns(n, 1, q),
                     lambda: ck_kernel(n, 1, q)):
            with pytest.raises(ValueError, match="variable-count mismatch"):
                call()


class TestBracket:
    def test_grading(self):
        n = 3
        basis = dict(killing.named_conformal_basis(n))
        br = bracket(basis["P1"], basis["K1"])
        assert br and all(sum(e) == 1 for _, e in br)

    def test_named_generators_are_terms(self):
        # (name, {(component, exponents): coeff}), all ints, at n = 2..5
        for n in range(2, 6):
            for d, count in enumerate((n, n * (n - 1) // 2 + 1, n, 0)):
                named = killing.named_generators(n, d)
                assert len(named) == count
                for _, terms in named:
                    assert all(0 <= c < n and len(e) == n and sum(e) == d
                               and type(v) is int and v
                               for (c, e), v in terms.items())

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
                           match=r"\[P1, P2\] left the span of the basis"):
            killing._solve([{0: 1}, {1: 1}], {(0, 1): {2: 1}}, ["P1", "P2"])

    def test_solve_reads_coordinates_off_any_keys(self):
        # keys need not be ints: 4 b = -2 (a) + 2 (a + 2 b), 0 has none,
        # and the product's keys may come in any order
        basis = [{"a": 1}, {"a": 1, "b": 2}, {"c": 1}]
        products = {(0, 1): {"b": 4}, (0, 2): {}, (1, 2): {"c": -1, "a": 3}}
        out = killing._solve(basis, products, ["A", "B", "C"])
        assert out == {(0, 1): {0: -2, 1: 2}, (0, 2): {},
                       (1, 2): {0: 3, 2: -1}}

    def test_antisymmetry(self):
        n = 3
        basis = killing.named_conformal_basis(n)
        a, b = basis[0][1], basis[-1][1]
        lhs = bracket(a, b)
        rhs = bracket(b, a)
        assert lhs
        assert rhs == {k: -v for k, v in lhs.items()}

    def test_closure_of_kernel(self):
        # bracket of conformal Killing fields stays conformal Killing
        n = 3
        fields = []
        for d in range(3):
            fields.extend(ck_kernel(n, d))
        # one form keys CK of every field of degree <= 3, as any bracket of
        # two fields of degree <= 2 is
        form = killing._ck_form(n, QuadraticForm.standard(n), 3)
        for a in fields[:5]:
            for b in fields[-5:]:
                br = bracket(killing._terms(a), killing._terms(b))
                assert killing._ck_sum(br, form) == {}


class TestSoNp2:
    @pytest.mark.parametrize("n", range(3, 9))
    def test_isomorphism(self, n):
        report = killing.so_np2_isomorphism(n)
        assert report["dimension"] == (n + 2) * (n + 1) // 2
        assert report["structure_constants_match"]
        assert report["jacobi"] == "exact"

    @pytest.mark.parametrize("n", range(3, 7))
    def test_structure_constants_are_ints(self, n):
        # the two tables solved one side at a time, the oracle of the
        # graph solve: linalg hands integral entries back as ints, so both
        # are all ints and agree value types included
        typed = lambda table: {k: {c: (type(x), x) for c, x in v.items()}
                               for k, v in table.items()}
        conf = killing.structure_constants(killing.named_conformal_basis(n))
        assert all(type(x) is int for v in conf.values() for x in v.values())
        assert typed(conf) == typed(killing.so_structure_constants(n))

    def test_rejects_small_n(self):
        with pytest.raises(ValueError):
            killing.so_np2_isomorphism(2)

    @staticmethod
    def change_p1_k1(monkeypatch, change):
        """Route the field bracket [P1, K1] at n = 3 through change."""
        TestSoNp2.change_pair(monkeypatch, "P1", "K1", change)

    @staticmethod
    def change_pair(monkeypatch, a, b, change):
        """Route the field bracket [a, b] at n = 3 through change."""
        named = dict(killing.named_conformal_basis(3))
        pair = named[a], named[b]
        real = killing.bracket

        def patched(xi, eta):
            out = real(xi, eta)
            return change(out, named) if (xi, eta) == pair else out

        monkeypatch.setattr(killing, "bracket", patched)

    def test_changed_structure_constant_is_caught(self, monkeypatch):
        # [P1, K1] = 2 D + ... on the field side, now 3 D + ...: the graph
        # vector of that pair leaves the span, though the images are right
        def plus_d(out, named):
            for k, v in named["D"].items():
                out[k] = out.get(k, 0) + v
            return out

        self.change_p1_k1(monkeypatch, plus_d)
        with pytest.raises(ArithmeticError,
                           match=r"\[P1, K1\] left the span of the basis"):
            killing.so_np2_isomorphism(3)

    # wrong so(n+2) images and the message each one raises: the zero map
    # closes the graph (it is the field side alone), so only the rank of
    # the images catches it
    IMAGE_MUTATIONS = {
        "zero": (lambda named: [(g, {}) for g, _ in named],
                 r"so\(5\) images of 10 generators have rank 0, not 10"),
        "doubled": (lambda named: [(g, {k: 2 * x for k, x in m.items()})
                                   for g, m in named],
                    r"\[P1, R12\] left the span of the basis"),
        "swapped-P1-P2": (lambda named: [(named[0][0], named[1][1]),
                                         (named[1][0], named[0][1])]
                          + named[2:],
                          r"\[P1, R12\] left the span of the basis"),
    }

    @pytest.mark.parametrize("mutation", IMAGE_MUTATIONS)
    def test_wrong_images_are_caught(self, monkeypatch, mutation):
        wrong, message = self.IMAGE_MUTATIONS[mutation]
        real = killing.conformal_to_so_matrices
        monkeypatch.setattr(killing, "conformal_to_so_matrices",
                            lambda n: wrong(real(n)))
        with pytest.raises(ArithmeticError, match=message):
            killing.so_np2_isomorphism(3)

    def test_one_doubled_bracket_is_caught(self, monkeypatch):
        self.change_p1_k1(monkeypatch, lambda out, named: {
            k: 2 * v for k, v in out.items()})
        with pytest.raises(ArithmeticError,
                           match=r"\[P1, K1\] left the span of the basis"):
            killing.so_np2_isomorphism(3)

    def test_doubled_bracket_of_a_rotation_and_k_is_caught(self, monkeypatch):
        # [R12, K1] is bracketed only for closure, not for generation
        self.change_pair(monkeypatch, "R12", "K1", lambda out, named: {
            k: 2 * v for k, v in out.items()})
        with pytest.raises(ArithmeticError,
                           match=r"\[R12, K1\] left the span of the basis"):
            killing.so_np2_isomorphism(3)

    def test_generators_short_of_so_n_plus_2_are_caught(self, monkeypatch):
        # the brackets of the P's with every generator stay in the graph,
        # so closure holds for this set; only generation fails: K1, found
        # by name, still yields [P_i, K1], the other K's and the R_ij, but
        # its own graph vector is missing, so they span 9 of the 10
        real = killing._generators
        monkeypatch.setattr(killing, "_generators", lambda names: [
            a for a in real(names) if names[a][0] == "P"])
        with pytest.raises(ArithmeticError,
                           match="P and K do not generate the graph"):
            killing.so_np2_isomorphism(3)

    @pytest.mark.parametrize("n", [3, 4, 5])
    def test_every_single_corruption_is_caught(self, monkeypatch, n):
        # one generator's field or image times 2 or -1, or two adjacent
        # images swapped: bracketing only P_1..P_n and K_1 with every
        # generator loses none of these to the certificate
        basis = killing.named_conformal_basis(n)
        images = killing.conformal_to_so_matrices(n)
        field = lambda f, c: {k: c * x for k, x in f.items()}
        image = lambda m, c: {k: c * x for k, x in m.items()}
        at = lambda seq, a, x: seq[:a] + [(seq[a][0], x)] + seq[a + 1:]
        cases = [case for a in range(len(basis)) for c in (2, -1)
                 for case in ((at(basis, a, field(basis[a][1], c)), images),
                              (basis, at(images, a, image(images[a][1], c))))]
        cases += [(basis, at(at(images, a, images[a + 1][1]), a + 1,
                             images[a][1])) for a in range(len(images) - 1)]
        for named, mats in cases:
            monkeypatch.setattr(killing, "named_conformal_basis",
                                lambda _: named)
            monkeypatch.setattr(killing, "conformal_to_so_matrices",
                                lambda _: mats)
            with pytest.raises(ArithmeticError):
                killing.so_np2_isomorphism(n)

    def test_zero_fields_are_caught(self, monkeypatch):
        # zero fields with the right images close the graph and pass the
        # rank check, so each field must be nonzero
        real = killing.named_conformal_basis
        monkeypatch.setattr(killing, "named_conformal_basis", lambda n: [
            (g, {}) for g, _ in real(n)])
        with pytest.raises(ArithmeticError,
                           match="P1 is not conformal Killing, or is 0"):
            killing.so_np2_isomorphism(3)

    def test_jacobi_catches_a_perturbed_constant(self):
        dim = 10
        table = killing.so_structure_constants(3)
        assert killing.check_jacobi(table, dim) == (True, None)
        table[(0, 1)] = {0: Fraction(1)}  # [P1, P2] = P1 instead of 0
        ok, triple = killing.check_jacobi(table, dim)
        assert not ok
        assert len(triple) == 3 and sorted(set(triple)) == list(triple)

    def test_jacobi_on_rational_constants(self):
        # so(5) with every constant over 6, and in the basis rescaled to
        # e_a / (a + 1), whose constants c^c_ab (c + 1) / ((a + 1)(b + 1))
        # mix their denominators: both are Lie algebras, and shifting one
        # constant by 1/7 breaks either
        so5 = killing.so_structure_constants(3)
        for table in (
                {k: {c: Fraction(x, 6) for c, x in v.items()}
                 for k, v in so5.items()},
                {(a, b): {c: Fraction(x * (c + 1), (a + 1) * (b + 1))
                          for c, x in v.items()}
                 for (a, b), v in so5.items()}):
            assert killing.check_jacobi(table, 10) == (True, None)
            key = next(k for k, v in table.items() if v)
            c = next(iter(table[key]))
            table[key] = {**table[key], c: table[key][c] + Fraction(1, 7)}
            ok, triple = killing.check_jacobi(table, 10)
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
            # x1^2 d/dx1 in place of the last special conformal field
            basis[-1] = (basis[-1][0], {(0, (2,) + (0,) * (n - 1)): 1})
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
