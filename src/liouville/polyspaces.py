"""Homogeneous polynomials over Q in n variables, exact coefficients.

A coefficient is stored as an int when it is integral and as a Fraction
otherwise (`linalg._exact`), so integer data stays on int arithmetic;
the two print and compare alike.

Monomials are exponent tuples ordered graded-lexicographically, giving
every space S^d a canonical basis. The quadratic form q (its inverse is
one linalg.solve), the q-Laplacian and harmonic dimensions live here.
"""

from functools import cached_property
from itertools import combinations_with_replacement
from math import lcm

from . import linalg
from .linalg import _exact


def monomials(n, d):
    """Canonical (grlex-sorted) list of exponent tuples of total degree d:
    combinations_with_replacement emits index multisets in lexicographic
    order, which is descending lexicographic order of their exponents."""
    out = []
    for combo in combinations_with_replacement(range(n), d):
        e = [0] * n
        for i in combo:
            e[i] += 1
        out.append(tuple(e))
    return out


class Poly:
    """Homogeneous polynomial; coeffs maps exponent tuples to nonzero
    coefficients, ints when integral and Fractions otherwise."""

    def __init__(self, n, degree, coeffs=None):
        self.n = n
        self.degree = degree
        self.coeffs = {}
        if coeffs:
            for e, c in coeffs.items():
                c = _exact(c)
                if c == 0:
                    continue
                if len(e) != n or sum(e) != degree or min(e, default=0) < 0:
                    raise ValueError(f"bad exponent {e} for degree {degree}")
                self.coeffs[tuple(e)] = c

    @classmethod
    def monomial(cls, n, exponents):
        return cls(n, sum(exponents), {tuple(exponents): 1})

    def is_zero(self):
        return not self.coeffs

    def __add__(self, other):
        self._check(other)
        out = dict(self.coeffs)
        for e, c in other.coeffs.items():
            s = out.get(e, 0) + c
            if s == 0:
                out.pop(e, None)
            else:
                out[e] = s
        return Poly(self.n, self.degree, out)

    def __sub__(self, other):
        return self + other.scale(-1)

    def scale(self, c):
        c = _exact(c)
        out = Poly(self.n, self.degree)
        if c:
            out.coeffs = {e: _exact(v * c) for e, v in self.coeffs.items()}
        return out

    def __mul__(self, other):
        if self.n != other.n:
            raise ValueError("variable-count mismatch")
        out = {}
        for e1, c1 in self.coeffs.items():
            for e2, c2 in other.coeffs.items():
                e = tuple(a + b for a, b in zip(e1, e2))
                out[e] = out.get(e, 0) + c1 * c2
        return Poly(self.n, self.degree + other.degree, out)

    def diff(self, i):
        out = {}
        for e, c in self.coeffs.items():
            if e[i] == 0:
                continue
            e2 = list(e)
            e2[i] -= 1
            out[tuple(e2)] = c * e[i]
        return Poly(self.n, max(self.degree - 1, 0), out)

    def __eq__(self, other):
        return (
            isinstance(other, Poly)
            and self.n == other.n
            and self.coeffs == other.coeffs
        )

    def __repr__(self):
        if not self.coeffs:
            return "Poly(0)"
        terms = []
        for e in sorted(self.coeffs, reverse=True):
            terms.append(f"{self.coeffs[e]}*z^{e}")
        return " + ".join(terms)

    def to_json(self):
        return [
            {"exponents": list(e), "coeff": str(self.coeffs[e])}
            for e in sorted(self.coeffs, reverse=True)
        ]

    def _check(self, other):
        if self.n != other.n or (
            self.coeffs and other.coeffs and self.degree != other.degree
        ):
            raise ValueError("incompatible polynomials")


class QuadraticForm:
    """Nondegenerate symmetric n x n rational matrix."""

    def __init__(self, matrix):
        mat = [[_exact(x) for x in row] for row in matrix]
        n = len(mat)
        if any(len(row) != n for row in mat):
            raise ValueError("matrix must be square")
        for i in range(n):
            for j in range(n):
                if mat[i][j] != mat[j][i]:
                    raise ValueError("matrix must be symmetric")
        if linalg.rank(mat) < n:
            raise ValueError("quadratic form is degenerate")
        self.n = n
        self.matrix = mat

    @classmethod
    def standard(cls, n):
        """Sum of squares: the identity Gram matrix."""
        return cls([[1 if i == j else 0 for j in range(n)] for i in range(n)])

    @cached_property
    def inverse(self):
        """A^{-1}, computed on first use: most forms never need it."""
        return _invert(self.matrix)

    @cached_property
    def integer_entries(self):
        """(den, entries): den the lcm of the matrix's denominators and
        entries the (k, l, den * a_kl) of the nonzero a_kl with k <= l,
        computed on first use, once per form."""
        den = lcm(*(a.denominator for row in self.matrix for a in row))
        return den, tuple((k, l, a.numerator * (den // a.denominator))
                          for k, row in enumerate(self.matrix)
                          for l, a in enumerate(row[k:], k) if a)

    def as_poly(self):
        """q as the polynomial z^T A z."""
        out = {}
        for i, row in enumerate(self.matrix):
            for j in range(i, self.n):
                if row[j]:
                    e = [0] * self.n
                    e[i] += 1
                    e[j] += 1
                    out[tuple(e)] = row[j] if i == j else 2 * row[j]
        return Poly(self.n, 2, out)


def _invert(mat):
    """A^{-1}: its column j is the coordinates of e_j over A's columns, by
    one linalg.solve; fewer than n of them means A is degenerate."""
    n = len(mat)
    cols = [{i: row[j] for i, row in enumerate(mat)} for j in range(n)]
    inv = linalg.solve(cols, [{j: 1} for j in range(n)])
    if len(inv) < n:
        raise ValueError("quadratic form is degenerate")
    return [[c.get(i, 0) for c in inv] for i in range(n)]


def laplacian_q(f, q):
    """Delta_q f = sum_{i,j} q^{ij} d_i d_j f."""
    if f.n != q.n:
        raise ValueError("variable-count mismatch")
    n = f.n
    out = Poly(n, max(f.degree - 2, 0))
    qinv = q.inverse
    for i in range(n):
        fi = f.diff(i)
        if fi.is_zero():
            continue
        for j in range(n):
            if qinv[i][j] == 0:
                continue
            out = out + fi.diff(j).scale(qinv[i][j])
    return out


def laplacian_columns(n, d, q):
    """Sparse columns of Delta_q : S^d -> S^{d-2}."""
    src = monomials(n, d)
    dst = {e: i for i, e in enumerate(monomials(n, max(d - 2, 0)))}
    cols = []
    for e in src:
        img = laplacian_q(Poly.monomial(n, e), q)
        cols.append({dst[k]: c for k, c in img.coeffs.items()})
    return cols, src


def harmonic_dim(n, d, q=None):
    """Exact dimension of ker(Delta_q) on S^d."""
    q = q if q is not None else QuadraticForm.standard(n)
    cols, src = laplacian_columns(n, d, q)
    return len(src) - linalg.rank_sparse(cols)

