"""Hypothesis properties of the Casimir, the projector against the
Casimir steps, the integer y_dq columns, y_dq against its closed form and
against the projector, the conformal Killing operator and its int
columns, the Lie bracket, the Jacobi check, the int-or-Fraction
coefficient representation, Cech slices and Bott's answers. The
references run on the dict arithmetic of `polyref`."""

import contextlib
import io
import json
from fractions import Fraction
from itertools import combinations
from math import lcm, prod
from unittest import mock

import pytest
from hypothesis import assume, given, settings, strategies as st

from liouville import bott, cech, cli, killing, young_map as ym
from liouville.killing import (PolyVectorField, bracket, ck_columns,
                               ck_operator)
from liouville.polyspaces import Poly, QuadraticForm, monomials
from polyref import (component, ref_add, ref_bracket, ref_diff, ref_mul,
                     ref_nonzero, ref_scale, ref_sub)

small = st.integers(-3, 3).filter(bool)


def bounded(n):
    return settings(max_examples=n, deadline=None, derandomize=True,
                    database=None)


@st.composite
def polys(draw, n, degree, max_terms=6):
    basis = monomials(n, degree)
    return Poly(n, degree, draw(st.dictionaries(
        st.sampled_from(basis), small, max_size=max_terms)))


def _e_op(F, n, i, j):
    """E_ij F on {exponents: coeff}, where E_ij = x_i d/dx_j + y_i d/dy_j."""
    out = {}
    for e, c in F.items():
        for a, b in ((i, j), (n + i, n + j)):
            if e[b]:
                e2 = list(e)
                e2[b] -= 1
                e2[a] += 1
                k = tuple(e2)
                out[k] = out.get(k, 0) + c * e[b]
    return out


def casimir_by_e_ops(F):
    """Reference Casimir: the n^2 operators E_ij E_ji, summed."""
    n = F.n // 2
    out = {}
    for i in range(n):
        for j in range(n):
            out = ref_add(out, _e_op(_e_op(F.coeffs, n, j, i), n, i, j))
    return Poly(F.n, F.degree, out)


@st.composite
def bipolys(draw):
    """Zero, one bidegree (d, e) or a sum of two, in 2n variables."""
    n, total = draw(st.integers(2, 5)), draw(st.integers(0, 5))
    F = {}
    for _ in range(draw(st.integers(0, 2))):
        d = draw(st.integers(0, total))
        basis = ym.bipoly_basis(n, d, total - d)
        F = ref_add(F, draw(st.dictionaries(
            st.sampled_from(basis), small, min_size=1, max_size=4)))
    return Poly(2 * n, total, F)


@bounded(100)
@given(bipolys())
def test_capelli_casimir_matches_e_ops(F):
    assert ym.casimir_apply(F) == casimir_by_e_ops(F)


@st.composite
def bidegree_d2(draw):
    n, d = draw(st.sampled_from([2, 3])), draw(st.integers(2, 4))
    basis = ym.bipoly_basis(n, d, 2)
    return Poly(2 * n, d + 2, draw(st.dictionaries(
        st.sampled_from(basis), small, max_size=4)))


@bounded(12)
@given(bidegree_d2())
def test_projector_is_idempotent(F):
    once = ym.project_isotypic(F)
    assert ym.project_isotypic(once) == once


@st.composite
def rational_forms(draw, n):
    """A nondegenerate symmetric form on C^n with rational entries (small
    denominators) and a nonzero off-diagonal entry."""
    entry = st.builds(Fraction, st.integers(-4, 4), st.integers(1, 6))
    mat = [[Fraction(0)] * n for _ in range(n)]
    for i in range(n):
        for j in range(i, n):
            mat[i][j] = mat[j][i] = draw(entry)
    mat[0][1] = mat[1][0] = draw(entry.filter(bool))
    try:
        return QuadraticForm(mat)
    except ValueError:
        assume(False)


@st.composite
def fraction_forms(draw):
    """n, d, a rational form and one column to check against the E_ij
    reference."""
    n, d = draw(st.integers(2, 5)), draw(st.integers(2, 4))
    q = draw(rational_forms(n))
    pick = draw(st.integers(0, len(monomials(n, d)) - 1))
    return n, d, q, pick


def project_by_e_ops(F):
    """Reference projection of bidegree (d, 2) onto Sigma^{d,2}: the two
    Casimir steps (Omega - c_mu) / (c_{(d,2)} - c_mu), with the E_ij
    reference Casimir."""
    n, d = F.n // 2, F.degree - 2
    c_target = ym.casimir_scalar((d, 2), n)
    for mu in ((d + 2,), (d + 1, 1)):
        c_mu = ym.casimir_scalar(mu, n)
        F = Poly(F.n, F.degree, ref_scale(
            ref_sub(casimir_by_e_ops(F).coeffs, ref_scale(F.coeffs, c_mu)),
            Fraction(1, c_target - c_mu)))
    return F


def y_dq_by_e_ops(e, q):
    """Reference y_dq(x^e, q): x^e q(y) from q's matrix, then the E_ij
    reference projection."""
    n, d = q.n, sum(e)
    F = {}
    for i in range(n):
        for j in range(n):
            ey = [0] * n
            ey[i] += 1
            ey[j] += 1
            F = ref_add(F, {e + tuple(ey): q.matrix[i][j]})
    return project_by_e_ops(Poly(2 * n, d + 2, F))


@st.composite
def fraction_bidegree_d2(draw):
    """F of bidegree (d, 2) in 2n variables with Fraction coefficients,
    n = 2..4, d = 2..5."""
    n, d = draw(st.integers(2, 4)), draw(st.integers(2, 5))
    coeff = st.builds(Fraction, small, st.integers(1, 7))
    return Poly(2 * n, d + 2, draw(st.dictionaries(
        st.sampled_from(ym.bipoly_basis(n, d, 2)), coeff, max_size=5)))


@bounded(30)
@given(fraction_bidegree_d2())
def test_extremal_projector_matches_casimir_steps(F):
    """The extremal projector is the Casimir projection, and its image is
    killed by the raising operator sum_i x_i d/dy_i."""
    n = F.n // 2
    P = ym.project_isotypic(F)
    assert P == project_by_e_ops(F)
    raised = {}
    for i, e in enumerate(monomials(F.n, 1)[:n]):
        raised = ref_add(raised, ref_mul({e: 1}, ref_diff(P.coeffs, n + i)))
    assert not raised


@bounded(15)
@given(fraction_forms())
def test_int_columns_are_one_multiple_of_y_dq(case):
    """Every y_dq_columns column is K * y_dq(x^e, q), one K for all, and
    the picked one is K times the E_ij reference projection."""
    n, d, q, pick = case
    cols, src = ym.y_dq_columns(n, d, q)
    index = {k: i for i, k in enumerate(ym.bipoly_basis(n, d, 2))}
    den = lcm(*(x.denominator for row in q.matrix for x in row))
    K = den * d * (d + 1)
    assert src == monomials(n, d)
    for e, col in zip(src, cols):
        assert all(type(v) is int for v in col.values())
        img = ym.y_dq(Poly.monomial(n, e), q)
        assert col == {index[k]: K * c for k, c in img.coeffs.items()}
    ref = y_dq_by_e_ops(src[pick], q)
    assert cols[pick] == {index[k]: K * c for k, c in ref.coeffs.items()}


@st.composite
def forms_and_polys(draw, min_terms=1):
    """A random nondegenerate rational form and f in S^d with Fraction
    coefficients and at least min_terms terms, n = 2..5, d = 2..5."""
    n, d = draw(st.integers(2, 5)), draw(st.integers(2, 5))
    coeff = st.builds(Fraction, small, st.integers(1, 7))
    f = Poly(n, d, draw(st.dictionaries(
        st.sampled_from(monomials(n, d)), coeff, min_size=min_terms,
        max_size=5)))
    return f, draw(rational_forms(n))


@bounded(40)
@given(forms_and_polys())
def test_y_dq_closed_form(case):
    """d(d+1) y_dq(f, q) = d(d-1) f q(y) - 2(d-1) (Lf) B(x, y) + (L^2 f) q(x),
    B(x, y) = sum a_ij x_i y_j and L = sum y_i d/dx_i, by the reference
    dict arithmetic alone."""
    f, q = case
    n, d = f.n, f.degree
    xy = [{e: 1} for e in monomials(2 * n, 1)]
    x, y = xy[:n], xy[n:]
    B = {}
    for i in range(n):
        for j in range(n):
            B = ref_add(B, ref_scale(ref_mul(x[i], y[j]), q.matrix[i][j]))

    def lower(g):
        out = {}
        for i in range(n):
            out = ref_add(out, ref_mul(y[i], ref_diff(g, i)))
        return out

    z = (0,) * n
    qp = q.as_poly().coeffs
    fx = {e + z: c for e, c in f.coeffs.items()}
    qx = {e + z: c for e, c in qp.items()}
    qy = {z + e: c for e, c in qp.items()}
    Lf = lower(fx)
    rhs = ref_add(ref_sub(ref_scale(ref_mul(fx, qy), d * (d - 1)),
                          ref_scale(ref_mul(Lf, B), 2 * (d - 1))),
                  ref_mul(lower(Lf), qx))
    assert ref_scale(ym.y_dq(f, q).coeffs, d * (d + 1)) == rhs


@bounded(60)
@given(forms_and_polys(min_terms=0))
def test_y_dq_matches_extremal_projector(case):
    """The closed form y_dq runs is the generic projector on
    F = f(x) q(y), F built by the reference dict arithmetic; the zero f
    included."""
    f, q = case
    n, z = f.n, (0,) * f.n
    fx = {e + z: c for e, c in f.coeffs.items()}
    qy = {z + e: c for e, c in q.as_poly().coeffs.items()}
    F = Poly(2 * n, f.degree + 2, ref_mul(fx, qy))
    assert ym.y_dq(f, q) == ym.project_isotypic(F)


def divergence(xi):
    out = {}
    for i in range(xi.n):
        out = ref_add(out, ref_diff(xi.components[i].coeffs, i))
    return out


def ck_by_gradient(xi, q):
    """Reference CK: {(i, j): T_ij} over i <= j, the traceless symmetrized
    gradient of xi with its index lowered by q, in dict arithmetic."""
    n = xi.n
    flat = []
    for j in range(n):
        acc = {}
        for k in range(n):
            acc = ref_add(acc, ref_scale(xi.components[k].coeffs,
                                         q.matrix[j][k]))
        flat.append(acc)
    div = divergence(xi)
    out = {}
    for i in range(n):
        for j in range(i, n):
            sym = ref_add(ref_diff(flat[j], i), ref_diff(flat[i], j))
            trace = ref_scale(div, Fraction(2, n) * q.matrix[i][j])
            out[i, j] = ref_sub(sym, trace)
    return out


@st.composite
def fields_and_forms(draw):
    """A vector field of degree 0..3 on C^n, n = 2..5, and a rational form."""
    n, d = draw(st.integers(2, 5)), draw(st.integers(0, 3))
    xi = PolyVectorField([draw(polys(n, d, max_terms=3)) for _ in range(n)])
    return xi, draw(rational_forms(n))


@bounded(40)
@given(fields_and_forms())
def test_ck_operator_matches_symmetrized_gradient(case):
    """CK(xi) = sum_ij T_ij y_i y_j: T_ii on y_i^2, 2 T_ij on y_i y_j."""
    xi, q = case
    n = xi.n
    ref = {}
    for (i, j), t in ck_by_gradient(xi, q).items():
        ey = [0] * n
        ey[i] += 1
        ey[j] += 1
        ref = ref_add(ref, {m + tuple(ey): c * (1 if i == j else 2)
                            for m, c in t.items()})
    assert ck_operator(xi, q).coeffs == ref


@st.composite
def ck_column_cases(draw):
    """n = 2..5, field degree 0..3 and a rational form."""
    n, d = draw(st.integers(2, 5)), draw(st.integers(0, 3))
    return n, d, draw(rational_forms(n))


@bounded(25)
@given(ck_column_cases())
def test_ck_columns_are_one_int_multiple_of_ck_operator(case):
    """Every ck_columns column is all-int and K * CK(x^e d/dx_c, q), one
    K = den n for all, den the lcm of the denominators of q's matrix."""
    n, d, q = case
    cols, src = ck_columns(n, d, q)
    index = {k: i for i, k in
             enumerate(ym.bipoly_basis(n, max(d - 1, 0), 2))}
    K = lcm(*(x.denominator for row in q.matrix for x in row)) * n
    assert src == monomials(n, d)
    assert len(cols) == n * len(src)
    for j, col in enumerate(cols):
        c, e = divmod(j, len(src))
        assert all(type(v) is int and v for v in col.values())
        xi = PolyVectorField([Poly.monomial(n, src[e]) if k == c
                              else Poly(n, d) for k in range(n)])
        img = ck_operator(xi, q)
        assert col == {index[k]: K * v for k, v in img.coeffs.items()}


@st.composite
def fraction_fields_of_degree_1_to_4(draw):
    """A field of degree 1..4 with Fraction coefficients on C^n,
    n = 2..5, and a rational form."""
    n, d = draw(st.integers(2, 5)), draw(st.integers(1, 4))
    coeff = st.builds(Fraction, small, st.integers(1, 5))
    xi = PolyVectorField([Poly(n, d, draw(st.dictionaries(
        st.sampled_from(monomials(n, d)), coeff, max_size=3)))
        for _ in range(n)])
    return xi, draw(rational_forms(n))


@bounded(40)
@given(fraction_fields_of_degree_1_to_4())
def test_ck_commutes_with_derivatives(case):
    """CK has constant coefficients: CK(d_i xi) = d/dx_i CK(xi) for every
    i, with ck_operator's coefficients ints exactly when integral."""
    xi, q = case
    ck = ck_operator(xi, q)
    assert stored_exactly(ck.coeffs.values())
    for i in range(xi.n):
        d_xi = PolyVectorField([Poly(xi.n, comp.degree - 1,
                                     ref_diff(comp.coeffs, i))
                                for comp in xi.components])
        assert ck_operator(d_xi, q).coeffs == ref_diff(ck.coeffs, i)


def jacobi_by_all_triples(constants, dim):
    """Reference Jacobi check on Fractions: every triple a < b < c in
    order, each bracket antisymmetrized and a missing one zero."""
    C = {}
    for (a, b), v in constants.items():
        C[a, b] = {m: Fraction(x) for m, x in v.items()}
        C[b, a] = {m: -x for m, x in C[a, b].items()}
    for a in range(dim):
        for b in range(a + 1, dim):
            for c in range(b + 1, dim):
                acc = {}
                for x, y, z in ((a, b, c), (b, c, a), (c, a, b)):
                    for m, u in C.get((x, y), {}).items():
                        for t, w in C.get((m, z), {}).items():
                            acc[t] = acc.get(t, 0) + u * w
                if any(acc.values()):
                    return False, (a, b, c)
    return True, None


@st.composite
def perturbed_so_constants(draw):
    """so(n+2)'s structure constants, n = 3..5, with up to three changes:
    an entry set to a Fraction (zero included), a bracket emptied or a
    bracket left out."""
    n = draw(st.integers(3, 5))
    dim = (n + 2) * (n + 1) // 2
    table = killing.so_structure_constants(n)
    keys = sorted(table)
    for _ in range(draw(st.integers(0, 3))):
        key = draw(st.sampled_from(keys))
        kind = draw(st.sampled_from(["set", "empty", "missing"]))
        if kind == "set":
            table[key] = {**table.get(key, {}),
                          draw(st.integers(0, dim - 1)): draw(mixed)}
        elif kind == "empty":
            table[key] = {}
        else:
            table.pop(key, None)
    return table, dim


@bounded(40)
@given(perturbed_so_constants())
def test_check_jacobi_matches_all_triples(case):
    """check_jacobi gives the all-triples reference's verdict and first
    failing triple."""
    table, dim = case
    assert killing.check_jacobi(table, dim) == jacobi_by_all_triples(
        table, dim)


@st.composite
def fraction_fields(draw, n, d):
    """A degree-d field on C^n with Fraction coefficients, as its terms;
    about one component in four is zero."""
    coeff = st.builds(Fraction, small, st.integers(1, 5))
    basis = monomials(n, d)
    return {(c, e): v for c in range(n) if draw(st.integers(0, 3))
            for e, v in draw(st.dictionaries(st.sampled_from(basis), coeff,
                                             min_size=1, max_size=3)).items()}


@st.composite
def field_pairs(draw):
    n, d1, d2 = draw(st.integers(2, 5)), draw(st.integers(0, 3)), draw(
        st.integers(0, 3))
    return n, d1 + d2 - 1, draw(fraction_fields(n, d1)), draw(
        fraction_fields(n, d2))


@bounded(80)
@given(field_pairs())
def test_bracket_matches_poly_arithmetic(case):
    n, d, xi, eta = case
    ref = ref_bracket(xi, eta, n)
    br = bracket(xi, eta)
    assert br == ref
    assert all(sum(e) == d for _, e in br)
    assert bracket(eta, xi) == {k: -v for k, v in ref.items()}


@st.composite
def field_triples(draw):
    n = draw(st.integers(1, 4))
    return [draw(fraction_fields(n, draw(st.integers(0, 3))))
            for _ in range(3)]


@bounded(60)
@given(field_triples())
def test_bracket_is_a_lie_bracket(case):
    """Antisymmetry and Jacobi in Vect, on which the so(n+2) certificate's
    normalizer argument rests."""
    a, b, c = case
    assert bracket(a, a) == {}
    assert bracket(b, a) == {k: -v for k, v in bracket(a, b).items()}
    acc = {}
    for x, y, z in ((a, b, c), (b, c, a), (c, a, b)):
        for k, v in bracket(bracket(x, y), z).items():
            acc[k] = acc.get(k, 0) + v
    assert not any(acc.values())


def test_bracket_rejects_fields_on_different_spaces():
    xi = {(i, e): 1 for i, e in enumerate(monomials(3, 1))}
    eta = {(i, e): 1 for i, e in enumerate(monomials(4, 1))}
    for a, b in ((xi, eta), (eta, xi)):
        with pytest.raises(ValueError, match="variable-count mismatch"):
            bracket(a, b)


def stored_exactly(coeffs):
    """Every value is an int when integral, else a Fraction with
    denominator > 1."""
    return all(type(c) is (int if c.denominator == 1 else Fraction)
               for c in coeffs)


def ref_json(f):
    return [{"exponents": list(e), "coeff": str(f[e])}
            for e in sorted(f, reverse=True)]


# Fractions of denominator 1, 2 or 3: about half of them integral.
mixed = st.builds(Fraction, st.integers(-6, 6), st.sampled_from([1, 1, 2, 3]))


@st.composite
def mixed_cases(draw):
    """A Fraction dict f of degree d, a variable, two fields of degree d
    (as terms) and a form."""
    n, d = draw(st.integers(1, 3)), draw(st.integers(0, 3))

    def raw(degree):
        return draw(st.dictionaries(st.sampled_from(monomials(n, degree)),
                                    mixed, max_size=5))

    fields = [ref_nonzero({(c, e): v for c in range(n)
                           for e, v in raw(d).items()}) for _ in range(2)]
    q = draw(rational_forms(n)) if n > 1 else QuadraticForm(
        [[draw(mixed.filter(bool))]])
    return n, d, raw(d), draw(st.integers(0, n - 1)), fields, q


@bounded(80)
@given(mixed_cases())
def test_coefficients_are_ints_exactly_when_integral(case):
    """A Poly's coefficients and the bracket's, and the JSON that
    `killing` writes from a field's terms, hold ints exactly where the
    value is integral."""
    n, d, f, i, (xi, eta), q = case
    F = Poly(n, d, f)
    assert stored_exactly(F.coeffs.values())
    assert F.coeffs == ref_nonzero(f)
    br = bracket(xi, eta)
    assert stored_exactly(br.values())
    assert br == ref_bracket(xi, eta, n)
    # F as the field F d/dx_i, and the bracket, printed by `killing` in
    # place of its named generators (at d = 0, which checks none of them)
    for terms in ({(i, e): c for e, c in F.coeffs.items()}, br):
        text = io.StringIO()
        with mock.patch.object(killing, "named_generators",
                               lambda n, d: [("f", terms)]), \
                contextlib.redirect_stdout(text):
            assert cli.run(["killing", "--n", "2", "--d", "0"]) == 0
        [out] = json.loads(text.getvalue())["generators"]
        assert out == {"name": "f", "components": [
            ref_json(component(terms, m)) for m in range(n)] if terms else []}
    assert stored_exactly(x for row in q.matrix for x in row)
    assert stored_exactly(q.as_poly().coeffs.values())


@st.composite
def same_negative_support(draw):
    n = draw(st.integers(1, 5))
    m = draw(st.lists(st.integers(-4, 4), min_size=n, max_size=n))
    m2 = [draw(st.integers(-4, -1) if x < 0 else st.integers(0, 4))
          for x in m]
    return n, m, m2


@bounded(60)
@given(same_negative_support())
def test_cech_slice_depends_only_on_negative_support(case):
    n, m, m2 = case
    assert cech.cech_slice(n, m) == cech.cech_slice(n, m2)


def weyl_numerator(w):
    """prod_{i<j} (w_i - w_j + j - i), Weyl's numerator on w + rho."""
    return prod(x - y for x, y in combinations(
        [x - i for i, x in enumerate(w)], 2))


@bounded(200)
@given(st.lists(st.integers(-8, 8), min_size=1, max_size=8))
def test_bott_answer_keeps_the_weyl_numerator(a):
    """The Euler characteristic of O(a): Weyl's numerator on the unsorted
    weight is 0 exactly when Bott vanishes, else (-1)^degree times the
    numerator of Bott's weight, which is dominant."""
    res, num = bott.bott_cohomology(a), weyl_numerator(a)
    assert (res is None) == (num == 0)
    if res is not None:
        degree, lam = res
        assert list(lam) == sorted(lam, reverse=True)
        assert num == (-1) ** degree * weyl_numerator(lam)
