"""Hypothesis properties of the Casimir, the projector against the
Casimir steps, the integer y_dq columns, y_dq against its closed form and
against the projector, the conformal Killing operator and its int
columns, the Lie bracket, the Jacobi check, the int-or-Fraction
coefficient representation and Cech slices."""

from fractions import Fraction
from math import lcm

import pytest
from hypothesis import assume, given, settings, strategies as st

from liouville import cech, killing, young_map as ym
from liouville.killing import (PolyVectorField, _field, _terms, bracket,
                               ck_columns, ck_operator)
from liouville.polyspaces import Poly, QuadraticForm, monomials

small = st.integers(-3, 3).filter(bool)


def bounded(n):
    return settings(max_examples=n, deadline=None, derandomize=True,
                    database=None)


@st.composite
def polys(draw, n, degree, max_terms=6):
    basis = monomials(n, degree)
    return Poly(n, degree, draw(st.dictionaries(
        st.sampled_from(basis), small, max_size=max_terms)))


def _e_op(F, i, j):
    """E_ij F, where E_ij = x_i d/dx_j + y_i d/dy_j."""
    n = F.n // 2
    out = {}
    for e, c in F.coeffs.items():
        for a, b in ((i, j), (n + i, n + j)):
            if e[b]:
                e2 = list(e)
                e2[b] -= 1
                e2[a] += 1
                k = tuple(e2)
                out[k] = out.get(k, 0) + c * e[b]
    return Poly(F.n, F.degree, out)


def casimir_by_e_ops(F):
    """Reference Casimir: the n^2 operators E_ij E_ji, summed."""
    n = F.n // 2
    out = Poly(F.n, F.degree)
    for i in range(n):
        for j in range(n):
            out = out + _e_op(_e_op(F, j, i), i, j)
    return out


@st.composite
def bipolys(draw):
    """Zero, one bidegree (d, e) or a sum of two, in 2n variables."""
    n, total = draw(st.integers(2, 5)), draw(st.integers(0, 5))
    F = Poly(2 * n, total)
    for _ in range(draw(st.integers(0, 2))):
        d = draw(st.integers(0, total))
        basis = ym.bipoly_basis(n, d, total - d)
        F = F + Poly(2 * n, total, draw(st.dictionaries(
            st.sampled_from(basis), small, min_size=1, max_size=4)))
    return F


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
        F = (casimir_by_e_ops(F) - F.scale(c_mu)).scale(
            Fraction(1, c_target - c_mu))
    return F


def y_dq_by_e_ops(e, q):
    """Reference y_dq(x^e, q): x^e q(y) from q's matrix, then the E_ij
    reference projection."""
    n, d = q.n, sum(e)
    F = Poly(2 * n, d + 2)
    for i in range(n):
        for j in range(n):
            ey = [0] * n
            ey[i] += 1
            ey[j] += 1
            F = F + Poly(2 * n, d + 2, {e + tuple(ey): q.matrix[i][j]})
    return project_by_e_ops(F)


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
    raised = Poly(F.n, F.degree)
    for i, e in enumerate(monomials(F.n, 1)[:n]):
        raised = raised + Poly.monomial(F.n, e) * P.diff(n + i)
    assert raised.is_zero()


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
    B(x, y) = sum a_ij x_i y_j and L = sum y_i d/dx_i, by Poly arithmetic
    alone."""
    f, q = case
    n, d = f.n, f.degree
    xy = [Poly.monomial(2 * n, e) for e in monomials(2 * n, 1)]
    x, y = xy[:n], xy[n:]
    B = Poly(2 * n, 2)
    for i in range(n):
        for j in range(n):
            B = B + (x[i] * y[j]).scale(q.matrix[i][j])

    def lower(g):
        out = Poly(2 * n, g.degree)
        for i in range(n):
            out = out + y[i] * g.diff(i)
        return out

    z = (0,) * n
    qp = q.as_poly().coeffs
    fx = Poly(2 * n, d, {e + z: c for e, c in f.coeffs.items()})
    qx = Poly(2 * n, 2, {e + z: c for e, c in qp.items()})
    qy = Poly(2 * n, 2, {z + e: c for e, c in qp.items()})
    Lf = lower(fx)
    rhs = ((fx * qy).scale(d * (d - 1))
           - (Lf * B).scale(2 * (d - 1))
           + lower(Lf) * qx)
    assert ym.y_dq(f, q).scale(d * (d + 1)) == rhs



@bounded(60)
@given(forms_and_polys(min_terms=0))
def test_y_dq_matches_extremal_projector(case):
    """The closed form y_dq runs is the generic projector on
    F = f(x) q(y), F built by Poly arithmetic; the zero f included."""
    f, q = case
    n, z = f.n, (0,) * f.n
    fx = Poly(2 * n, f.degree, {e + z: c for e, c in f.coeffs.items()})
    qy = Poly(2 * n, 2, {z + e: c for e, c in q.as_poly().coeffs.items()})
    assert ym.y_dq(f, q) == ym.project_isotypic(fx * qy)

def divergence(xi):
    out = Poly(xi.n, max(xi.degree - 1, 0))
    for i in range(xi.n):
        out = out + xi.components[i].diff(i)
    return out


def ck_by_gradient(xi, q):
    """Reference CK: {(i, j): T_ij} over i <= j, the traceless symmetrized
    gradient of xi with its index lowered by q, in Poly arithmetic."""
    n = xi.n
    flat = []
    for j in range(n):
        acc = Poly(n, xi.degree)
        for k in range(n):
            acc = acc + xi.components[k].scale(q.matrix[j][k])
        flat.append(acc)
    div = divergence(xi)
    return {(i, j): flat[j].diff(i) + flat[i].diff(j)
            - div.scale(Fraction(2, n) * q.matrix[i][j])
            for i in range(n) for j in range(i, n)}


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
    ref = Poly(2 * n, xi.degree + 1)
    for (i, j), t in ck_by_gradient(xi, q).items():
        ey = [0] * n
        ey[i] += 1
        ey[j] += 1
        ref = ref + Poly(2 * n, xi.degree + 1, {
            m + tuple(ey): c * (1 if i == j else 2)
            for m, c in t.coeffs.items()})
    assert ck_operator(xi, q) == ref


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
        d_xi = PolyVectorField([comp.diff(i) for comp in xi.components])
        assert ck_operator(d_xi, q) == ck.diff(i)


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


def bracket_by_polys(xi, eta):
    """Reference bracket in Poly arithmetic:
    [xi, eta]_m = sum_j xi_j d_j eta_m - eta_j d_j xi_m."""
    n = xi.n
    deg = max(xi.degree + eta.degree - 1, 0)
    comps = []
    for m in range(n):
        acc = Poly(n, deg)
        for j in range(n):
            acc = acc + xi.components[j] * eta.components[m].diff(j)
            acc = acc - eta.components[j] * xi.components[m].diff(j)
        comps.append(acc)
    return PolyVectorField(comps)


@st.composite
def fraction_fields(draw, n):
    """A field of degree 0..3 with Fraction coefficients; about one
    component in four is zero."""
    d = draw(st.integers(0, 3))
    coeff = st.builds(Fraction, small, st.integers(1, 5))
    basis = monomials(n, d)
    return PolyVectorField([
        Poly(n, d, draw(st.dictionaries(st.sampled_from(basis), coeff,
                                        min_size=1, max_size=3)))
        if draw(st.integers(0, 3)) else Poly(n, d) for _ in range(n)])


@st.composite
def field_pairs(draw):
    n = draw(st.integers(2, 5))
    return draw(fraction_fields(n)), draw(fraction_fields(n))


@bounded(80)
@given(field_pairs())
def test_bracket_matches_poly_arithmetic(case):
    xi, eta = case
    ref = _terms(bracket_by_polys(xi, eta))
    br = bracket(xi, eta)
    assert br == ref
    d = max(xi.degree + eta.degree - 1, 0)
    assert all(sum(e) == d for _, e in br)
    assert bracket(eta, xi) == {k: -v for k, v in ref.items()}


@st.composite
def field_triples(draw):
    n = draw(st.integers(1, 4))
    return n, [draw(fraction_fields(n)) for _ in range(3)]


@bounded(60)
@given(field_triples())
def test_bracket_is_a_lie_bracket(case):
    """Antisymmetry and Jacobi in Vect, on which the so(n+2) certificate's
    normalizer argument rests."""
    n, (a, b, c) = case
    assert bracket(a, a) == {}
    assert bracket(b, a) == {k: -v for k, v in bracket(a, b).items()}
    acc = {}
    for x, y, z in ((a, b, c), (b, c, a), (c, a, b)):
        for k, v in bracket(_field(n, bracket(x, y)), z).items():
            acc[k] = acc.get(k, 0) + v
    assert not any(acc.values())


def test_bracket_rejects_fields_on_different_spaces():
    xi = PolyVectorField([Poly.monomial(3, e) for e in monomials(3, 1)])
    eta = PolyVectorField([Poly.monomial(4, e) for e in monomials(4, 1)])
    for a, b in ((xi, eta), (eta, xi)):
        with pytest.raises(ValueError):
            bracket(a, b)


def stored_exactly(coeffs):
    """Every value is an int when integral, else a Fraction with
    denominator > 1."""
    return all(type(c) is (int if c.denominator == 1 else Fraction)
               for c in coeffs)


def ref_nonzero(acc):
    return {e: c for e, c in acc.items() if c}


def ref_add(f, g):
    out = dict(f)
    for e, c in g.items():
        out[e] = out.get(e, Fraction(0)) + c
    return ref_nonzero(out)


def ref_mul(f, g):
    out = {}
    for e1, c1 in f.items():
        for e2, c2 in g.items():
            e = tuple(a + b for a, b in zip(e1, e2))
            out[e] = out.get(e, Fraction(0)) + c1 * c2
    return ref_nonzero(out)


def ref_diff(f, i):
    return {e[:i] + (e[i] - 1,) + e[i + 1:]: c * e[i]
            for e, c in f.items() if e[i]}


def ref_bracket(xi, eta):
    """[xi, eta]_m = sum_j xi_j d_j eta_m - eta_j d_j xi_m, on Fraction
    dicts."""
    n = len(xi)
    out = []
    for m in range(n):
        acc = {}
        for j in range(n):
            for a, b, sign in ((xi, eta, 1), (eta, xi, -1)):
                for e, c in ref_mul(a[j], ref_diff(b[m], j)).items():
                    acc[e] = acc.get(e, Fraction(0)) + sign * c
        out.append(ref_nonzero(acc))
    return out


def ref_json(f):
    return [{"exponents": list(e), "coeff": str(f[e])}
            for e in sorted(f, reverse=True)]


# Fractions of denominator 1, 2 or 3: about half of them integral.
mixed = st.builds(Fraction, st.integers(-6, 6), st.sampled_from([1, 1, 2, 3]))


@st.composite
def mixed_cases(draw):
    """Fraction dicts f, g of degree d and h of degree dh, a scale, a
    variable, two fields of degree d and a form."""
    n, d, dh = draw(st.integers(1, 3)), draw(st.integers(0, 3)), draw(
        st.integers(0, 2))

    def raw(degree):
        return draw(st.dictionaries(st.sampled_from(monomials(n, degree)),
                                    mixed, max_size=5))

    fields = [[raw(d) for _ in range(n)] for _ in range(2)]
    q = draw(rational_forms(n)) if n > 1 else QuadraticForm(
        [[draw(mixed.filter(bool))]])
    return (n, d, dh, raw(d), raw(d), raw(dh), draw(mixed),
            draw(st.integers(0, n - 1)), fields, q)


@bounded(80)
@given(mixed_cases())
def test_coefficients_are_ints_exactly_when_integral(case):
    n, d, dh, f, g, h, c, i, fields, q = case
    F = Poly(n, d, f)
    rf = ref_nonzero(f)
    results = [
        (F, rf),
        (F + Poly(n, d, g), ref_add(rf, ref_nonzero(g))),
        (F * Poly(n, dh, h), ref_mul(rf, ref_nonzero(h))),
        (F.scale(c), ref_nonzero({e: v * c for e, v in rf.items()})),
        (F.diff(i), ref_diff(rf, i)),
    ]
    xi, eta = (PolyVectorField([Poly(n, d, comp) for comp in fld])
               for fld in fields)
    # the bracket's terms grouped per component, their values as returned
    comps = [Poly(n, max(2 * d - 1, 0)) for _ in range(n)]
    for (m, e), v in bracket(xi, eta).items():
        comps[m].coeffs[e] = v
    results += zip(comps, ref_bracket(*([ref_nonzero(comp) for comp in fld]
                                        for fld in fields)))
    for poly, want in results:
        assert stored_exactly(poly.coeffs.values())
        assert poly.coeffs == want
        assert poly.to_json() == ref_json(want)
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
