"""Hypothesis properties of substitution, the Casimir, the projector
against the Casimir steps, the integer y_dq columns, the conformal Killing
operator, the Lie bracket and Cech slices."""

from fractions import Fraction
from math import lcm

import pytest
from hypothesis import assume, given, settings, strategies as st

from liouville import cech, young_map as ym
from liouville.killing import PolyVectorField, bracket, ck_operator
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


@st.composite
def substitutions(draw):
    """Two polynomials of one degree, a third, and linear forms for them."""
    n, m = draw(st.integers(1, 3)), draw(st.integers(1, 3))
    d = draw(st.integers(0, 3))
    forms = [draw(polys(m, 1)) for _ in range(n)]
    f, g = draw(polys(n, d)), draw(polys(n, d))
    h = draw(polys(n, draw(st.integers(0, 2))))
    return f, g, h, forms


@bounded(60)
@given(substitutions())
def test_substitute_is_a_ring_map(case):
    f, g, h, forms = case
    assert (f * h).substitute(forms) == \
        f.substitute(forms) * h.substitute(forms)
    assert (f + g).substitute(forms) == \
        f.substitute(forms) + g.substitute(forms)
    identity = [Poly.variable(f.n, i) for i in range(f.n)]
    assert f.substitute(identity) == f


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
    for i in range(n):
        raised = raised + Poly.variable(F.n, i) * P.diff(n + i)
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
    K = den * (4 * d + 4) * (2 * d)
    assert src == monomials(n, d)
    for e, col in zip(src, cols):
        assert all(type(v) is int for v in col.values())
        img = ym.y_dq(Poly.monomial(n, e), q)
        assert col == {index[k]: K * c for k, c in img.coeffs.items()}
    ref = y_dq_by_e_ops(src[pick], q)
    assert cols[pick] == {index[k]: K * c for k, c in ref.coeffs.items()}


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
    ref = bracket_by_polys(xi, eta)
    br = bracket(xi, eta)
    assert br.components == ref.components
    assert br.degree == ref.degree
    assert bracket(eta, xi).components == [c.scale(-1) for c in ref.components]


def test_bracket_rejects_fields_on_different_spaces():
    xi = PolyVectorField([Poly.variable(3, k) for k in range(3)])
    eta = PolyVectorField([Poly.variable(4, k) for k in range(4)])
    for a, b in ((xi, eta), (eta, xi)):
        with pytest.raises(ValueError):
            bracket(a, b)


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
