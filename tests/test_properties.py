"""Hypothesis properties of substitution, the projector and Cech slices."""

from hypothesis import given, settings, strategies as st

from liouville import cech, young_map as ym
from liouville.polyspaces import Poly, monomials

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
