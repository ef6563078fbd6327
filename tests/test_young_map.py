import os
import random
import subprocess
import sys
from fractions import Fraction
from itertools import permutations, product
from pathlib import Path

import pytest

from liouville import linalg, polyspaces, young_map as ym
from liouville.polyspaces import Poly, QuadraticForm, monomials
from liouville.weights import pad, weyl_dim


def dense(v, size):
    """A sparse {column: value} vector as a dense list of length `size`."""
    return [v.get(j, Fraction(0)) for j in range(size)]


def harmonic_basis(n, d, q):
    """Basis of ker(Delta_q) on S^d (d >= 2), the nullspace of its columns."""
    cols, src = polyspaces.laplacian_columns(n, d, q)
    return [Poly(n, d, dict(zip(src, dense(v, len(src)))))
            for v in linalg.nullspace(cols)]


def casimir_eigenspace_dims(n, d):
    """{lam: nullity of Omega - c(lam)} on bidegree (d, 2), over the
    three Pieri constituents lam of S^d x S^2 (n >= 2)."""
    basis = ym.bipoly_basis(n, d, 2)
    index = {k: i for i, k in enumerate(basis)}
    omega = [{index[m]: c for m, c in
              ym.casimir_apply(Poly(2 * n, d + 2, {k: 1})).coeffs.items()}
             for k in basis]
    out = {}
    for lam in [(d + 2,), (d + 1, 1), (d, 2)]:
        c = ym.casimir_scalar(lam, n)
        shifted = [{**col, j: col.get(j, 0) - c}
                   for j, col in enumerate(omega)]
        out[pad(lam, n)] = len(basis) - linalg.rank_sparse(shifted)
    return out


def power_of_linear_form(n, d):
    """(x_1)^d (y_1)^2: the highest-weight vector of the S^{d+2} piece."""
    ex = (d,) + (0,) * (n - 1)
    ey = (2,) + (0,) * (n - 1)
    return Poly(2 * n, d + 2, {ex + ey: 1})


class TestCasimir:
    def test_calibration_eigenvalue(self):
        # full symmetrization of a power of a linear form lies in the
        # S^{d+2} component; eigenvalue (d+2)(d+n+1)
        for n in (2, 3, 4):
            for d in (2, 3, 4):
                F = power_of_linear_form(n, d)
                assert ym.casimir_apply(F) == F.scale((d + 2) * (d + n + 1))

    def test_linearity_on_zero(self):
        F = Poly(6, 6)
        assert ym.casimir_apply(F).is_zero()

    def test_scalar_table(self):
        # the three Pieri constituents of S^d x S^2
        for n in range(2, 6):
            for d in range(2, 7):
                assert ym.casimir_scalar((d + 2,), n) == (d + 2) * (d + n + 1)
                assert ym.casimir_scalar((d + 1, 1), n) == \
                    (d + 1) * (d + n) + (n - 2)
                assert ym.casimir_scalar((d, 2), n) == \
                    d * (d + n - 1) + 2 * (n - 1)

    @pytest.mark.parametrize("n,dmax", [(2, 5), (3, 5), (4, 5)])
    def test_eigenspace_dimensions(self, n, dmax):
        # nullities of Omega - c(lam) match the Weyl dimensions and
        # exhaust the bidegree space: Omega is diagonalizable there, so
        # the Casimir projector is exactly the isotypic projection
        for d in range(2, dmax + 1):
            dims = casimir_eigenspace_dims(n, d)
            expected = {}
            for lam in [(d + 2,), (d + 1, 1), (d, 2)]:
                lam_p = pad(lam, n)
                expected[lam_p] = weyl_dim(lam_p)
            assert dims == expected
            space = len(monomials(n, d)) * len(monomials(n, 2))
            assert sum(dims.values()) == space


class TestProjector:
    def test_rejects_d_below_2(self):
        # x_1 y_1^2 at n = 3 has bidegree (1, 2): no shape (1, 2)
        F = Poly(6, 3, {(1, 0, 0, 2, 0, 0): 1})
        with pytest.raises(ValueError):
            ym.project_isotypic(F)

    @pytest.mark.parametrize("n,dmax", [(2, 4), (3, 3)])
    def test_idempotent_directly(self, n, dmax):
        for d in range(2, dmax + 1):
            for key in ym.bipoly_basis(n, d, 2):
                v = Poly(2 * n, d + 2, {key: 1})
                once = ym.project_isotypic(v)
                assert ym.project_isotypic(once) == once

    def test_fraction_input_is_normalized(self):
        # non-integral coefficients: the one division by 2d(d+1) at the
        # end must give the exact projection, so projecting again fixes it
        F = Poly(6, 5, {(3, 0, 0, 2, 0, 0): Fraction(2, 7),
                        (1, 1, 1, 0, 1, 1): Fraction(-5, 3),
                        (0, 2, 1, 1, 0, 1): Fraction(1, 11)})
        once = ym.project_isotypic(F)
        assert not once.is_zero()
        assert any(c.denominator != 1 for c in once.coeffs.values())
        assert ym.project_isotypic(once) == once
        # the two Pieri pieces it removes sum to F - once
        rest = F - once
        assert ym.project_isotypic(rest).is_zero()

    def test_rejects_wrong_y_degree(self):
        # x_1^3 y_1^3 at n = 3 has total degree 6 but bidegree (3, 3)
        F = Poly(6, 6, {(3, 0, 0, 3, 0, 0): 1})
        with pytest.raises(ValueError):
            ym.project_isotypic(F)

    def test_annihilates_symmetrization(self):
        for n in (2, 3, 4):
            for d in (2, 3):
                F = power_of_linear_form(n, d)
                assert ym.project_isotypic(F).is_zero()

    @pytest.mark.parametrize("n", [2, 3, 4])
    def test_rank_is_weyl_dim(self, n):
        # rank of the projector = trace, valid since the eigenspace
        # decomposition above certifies idempotence
        for d in range(2, 6):
            basis = ym.bipoly_basis(n, d, 2)
            trace = Fraction(0)
            for key in basis:
                img = ym.project_isotypic(Poly(2 * n, d + 2, {key: 1}))
                trace += img.coeffs.get(key, Fraction(0))
            assert trace == weyl_dim(pad((d, 2), n))


class TestYdq:
    def test_rejects_low_degree(self):
        q = QuadraticForm.standard(3)
        with pytest.raises(ValueError):
            ym.y_dq(Poly.variable(3, 0), q)

    def test_injective_n_ge_3(self):
        for n, dmax in ((3, 5), (4, 4), (5, 2)):
            for d in range(2, dmax + 1):
                ker, _ = ym.kernel_cokernel_dims(n, d)
                assert ker == 0

    def test_n2_kernel_dimension_2(self):
        for d in range(2, 7):
            ker, coker = ym.kernel_cokernel_dims(2, d)
            assert (ker, coker) == (2, 0)

    def test_n2_kernel_is_harmonic(self):
        q = QuadraticForm.standard(2)
        for d in range(2, 6):
            kernel = ym.y_dq_kernel(2, d, q)
            harmonic = harmonic_basis(2, d, q)
            assert len(kernel) == len(harmonic) == 2
            # equal spans: stacking either basis over the other adds no rank
            kv = [f.coeffs for f in kernel]
            hv = [f.coeffs for f in harmonic]
            assert linalg.rank_sparse(kv) == linalg.rank_sparse(hv) == \
                linalg.rank_sparse(kv + hv)

    def test_named_dims(self):
        assert ym.kernel_cokernel_dims(3, 2) == (0, 0)
        assert ym.kernel_cokernel_dims(4, 2) == (0, 10)
        assert ym.kernel_cokernel_dims(3, 3) == (0, 5)

    def test_scaling_q_invariance(self):
        q = QuadraticForm.standard(3)
        q_scaled = QuadraticForm([[Fraction(5, 3) * x for x in row]
                                  for row in q.matrix])
        for d in (2, 3):
            assert ym.kernel_cokernel_dims(3, d, q) == \
                ym.kernel_cokernel_dims(3, d, q_scaled)

    def test_equivariance_under_rotation(self):
        # R from the Cayley transform of an antisymmetric rational matrix
        rng = random.Random(99)
        for n, d in ((2, 3), (3, 3), (4, 2), (4, 4), (3, 4)):
            R = cayley_rotation(n, rng)
            q = QuadraticForm.standard(n)
            coeffs = {e: Fraction(rng.randint(-3, 3))
                      for e in monomials(n, d)}
            f = Poly(n, d, coeffs)
            f_rot = f.substitute(linear_forms(R, n))
            lhs = ym.y_dq(f_rot, q)
            # x -> R x and y -> R y: the block forms of R + R
            block = linear_forms(R, 2 * n) + linear_forms(R, 2 * n, shift=n)
            rhs = ym.y_dq(f, q).substitute(block)
            assert lhs == rhs


def cayley_rotation(n, rng):
    """(I - A)(I + A)^{-1} for a random antisymmetric rational A."""
    while True:
        A = [[Fraction(0)] * n for _ in range(n)]
        for i in range(n):
            for j in range(i + 1, n):
                A[i][j] = Fraction(rng.randint(-2, 2), rng.randint(1, 3))
                A[j][i] = -A[i][j]
        eye = [[Fraction(int(i == j)) for j in range(n)] for i in range(n)]
        try:
            inv = polyspaces._invert(
                [[eye[i][j] + A[i][j] for j in range(n)] for i in range(n)])
        except ValueError:
            continue
        R = [[sum((eye[i][k] - A[i][k]) * inv[k][j] for k in range(n))
              for j in range(n)] for i in range(n)]
        # orthogonality: R^T R = I
        for i in range(n):
            for j in range(n):
                got = sum(R[k][i] * R[k][j] for k in range(n))
                assert got == (1 if i == j else 0)
        return R


def linear_forms(R, width, shift=0):
    """z_i -> sum_j R[i][j] z_{shift + j}, as linear Polys in `width` vars."""
    n = len(R)
    return [Poly(width, 1, {tuple(int(k == shift + j) for k in range(width)):
                            R[i][j] for j in range(n)}) for i in range(n)]


SHAPES = [(1,), (2,), (3,), (1, 1), (2, 1), (2, 2), (3, 1), (4, 1), (3, 2),
          (5,), (2, 2, 1), (3, 1, 1)]


def in_range_shapes():
    """(lam, n) of test_rank_matches_weyl_dim, and every (d,2) the oracle
    admits (n^(d+2) <= 243)."""
    out = [(lam, n) for n in (2, 3) for lam in SHAPES
           if len(lam) <= n and n ** sum(lam) <= 243]
    out += [((d, 2), n) for n in (2, 3) for d in range(2, 6)
            if n ** (d + 2) <= 243]
    return sorted(set(out))


def word_level_symmetrizer(lam, n):
    """Reference c_lam = a_lam b_lam: the full loop over tensor words,
    signed column permutations and row permutations, with the slot groups
    found by brute force over all permutations of the k slots.

    Returns {row word: {column word: nonzero entry}}.
    """
    cells = [(r, c) for r, length in enumerate(lam) for c in range(length)]
    k = len(cells)

    def group(axis):
        return [p for p in permutations(range(k))
                if all(cells[p[i]][axis] == cells[i][axis] for i in range(k))]

    def sign(p):
        inversions = sum(p[i] > p[j] for i in range(k) for j in range(i + 1, k))
        return (-1) ** inversions

    row_perms = group(0)
    col_perms = [(p, sign(p)) for p in group(1)]
    mat = {}
    for w in product(range(n), repeat=k):
        acc = {}
        for p, s in col_perms:
            w2 = tuple(w[p[i]] for i in range(k))
            acc[w2] = acc.get(w2, 0) + s
        for w2, c in acc.items():
            for p in row_perms:
                w3 = tuple(w2[p[i]] for i in range(k))
                row = mat.setdefault(w3, {})
                row[w] = row.get(w, 0) + c
    return {w3: {w: c for w, c in row.items() if c} for w3, row in mat.items()}


class TestSymmetrizerOracle:
    def test_wedge_rank(self):
        assert ym.young_symmetrizer_oracle((1, 1), 3) == (3, None)

    def test_riemann_rank(self):
        assert ym.young_symmetrizer_oracle((2, 2), 3)[0] == 6

    def test_size_guard(self):
        with pytest.raises(ValueError):
            ym.young_symmetrizer_oracle((4, 2), 3)  # 3^6 = 729 > 243

    def test_rank_matches_weyl_dim(self):
        for n in (2, 3):
            for lam in SHAPES:
                if len(lam) > n or n ** sum(lam) > 243:
                    continue
                assert ym.young_symmetrizer_oracle(lam, n)[0] == \
                    weyl_dim(pad(lam, n))

    @pytest.mark.parametrize("lam,n", [
        pytest.param(lam, n, id=f"{'-'.join(map(str, lam))}-n{n}")
        for lam, n in in_range_shapes()])
    def test_rows_match_word_level_reference(self, lam, n):
        # every word-level row of c_lam equals the row of its row orbit,
        # stabilizer order and b_lam signs included
        cols = ym.young_symmetrizer_columns(lam, n)
        reference = word_level_symmetrizer(lam, n)
        bounds = [sum(lam[:r]) for r in range(len(lam) + 1)]
        for w3 in product(range(n), repeat=sum(lam)):
            orbit = tuple(tuple(sorted(w3[a:b]))
                          for a, b in zip(bounds, bounds[1:]))
            row = {w: c[orbit] for w, c in cols.items() if orbit in c}
            assert row == reference.get(w3, {})

    @pytest.mark.parametrize("n", [2, 3])
    def test_ydq_oracle_equivalence(self, n):
        diagonal = [[(1, -2, 3)[i] if i == j else 0 for j in range(n)]
                    for i in range(n)]
        non_diagonal = [[Fraction(2 + i) if i == j else Fraction(1, 3)
                         if abs(i - j) == 1 else 0 for j in range(n)]
                        for i in range(n)]
        forms = [QuadraticForm.standard(n), QuadraticForm(diagonal),
                 QuadraticForm(non_diagonal)]
        for d in range(2, 6):
            if n ** (d + 2) > 243:
                continue
            dim_sd = len(monomials(n, d))
            for q in forms:
                rank_sym, rank_y = ym.young_symmetrizer_oracle((d, 2), n, q)
                ker, coker = ym.kernel_cokernel_dims(n, d, q)
                assert dim_sd - rank_y == ker
                assert rank_sym - rank_y == coker


class TestPlaneHarmonicity:
    def test_n2_harmonics_pass(self):
        q = QuadraticForm.standard(2)
        for d in (2, 3, 4):
            for f in harmonic_basis(2, d, q):
                assert ym.plane_harmonicity_test(f, q)

    def test_multiple_of_q_fails(self):
        q = QuadraticForm.standard(3)
        g = Poly.variable(3, 0)
        f = q.as_poly() * g
        assert not ym.plane_harmonicity_test(f, q, trials=20, seed=3)

    def test_nonzero_quadratic_fails(self):
        q = QuadraticForm.standard(3)
        rng = random.Random(17)
        for _ in range(20):
            coeffs = {e: Fraction(rng.randint(-4, 4))
                      for e in monomials(3, 2)}
            f = Poly(3, 2, coeffs)
            if f.is_zero():
                continue
            assert not ym.plane_harmonicity_test(f, q, trials=30, seed=7)

    def test_kernel_members_pass(self):
        q = QuadraticForm.standard(2)
        for d in (2, 3, 4):
            for f in ym.y_dq_kernel(2, d, q):
                assert ym.plane_harmonicity_test(f, q)

    @pytest.mark.parametrize("nf,nq", [(4, 3), (3, 4)],
                             ids=["form-in-fewer-variables",
                                  "form-in-more-variables"])
    def test_variable_count_mismatch_is_refused(self, nf, nq):
        # a q in fewer variables would read only the first nq coordinates
        # of each sampled vector; one in more would index past them
        f = Poly.variable(nf, nf - 1) * Poly.variable(nf, 0)
        with pytest.raises(ValueError, match="variable-count mismatch"):
            ym.plane_harmonicity_test(f, QuadraticForm.standard(nq))

    def test_n1_is_refused(self):
        # two vectors of C^1 never span a plane, so resampling for one
        # would never end: a child with a timeout fails instead of hanging
        env = dict(os.environ)
        env["PYTHONPATH"] = str(Path(__file__).resolve().parents[1] / "src")
        code = ("from liouville import young_map\n"
                "from liouville.polyspaces import Poly\n"
                "try:\n"
                "    young_map.plane_harmonicity_test(Poly(1, 2, {(2,): 1}))\n"
                "except ValueError as e:\n"
                "    print(e)\n")
        proc = subprocess.run([sys.executable, "-c", code], env=env,
                              capture_output=True, text=True, timeout=30)
        assert proc.returncode == 0, proc.stderr
        assert "needs n >= 2" in proc.stdout
