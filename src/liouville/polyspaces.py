"""Homogeneous polynomials over Q in n variables, exact coefficients.

A coefficient is stored as an int when it is integral and as a Fraction
otherwise (`linalg._exact`), so integer data stays on int arithmetic;
the two print and compare alike.

Monomials are exponent tuples ordered graded-lexicographically, giving
every space S^d a canonical basis. The engine's operators act on plain
{exponents: coeff} dicts and build int columns; `Poly` wraps such a dict
only where a polynomial enters or leaves the API (y_dq, the projector,
kernels), so it has no arithmetic of its own. The module holds the
(x, y) ring in 2n variables that y_{d,q} and CK share (its bidegree
basis, polarizations and z_k z_l table `_pairs`), `Poly` and the
quadratic form q. A form's denominators are cleared once, by
`QuadraticForm.integer_entries`, which the y_{d,q} and CK columns read
through `_pairs`; every other matrix's by `linalg`'s echelon.
"""

from functools import cache, cached_property
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


def bipoly_basis(n, d, e):
    """Canonical basis of bidegree (d,e) in (x, y): exponent tuples ex + ey."""
    ys = monomials(n, e)
    return [ex + ey for ex in monomials(n, d) for ey in ys]


def _polarize(G, n, src, dst):
    """sum_i z_{dst+i} d/dz_{src+i} on {exponents: c}, x at offset 0 and
    y at offset n; only the nonzero exponents of the source block are
    visited. R = _polarize(G, n, n, 0), L = _polarize(G, n, 0, n)."""
    out = {}
    for k, c in G.items():
        for i, b in enumerate(k[src:src + n]):
            if b:
                m = list(k)
                m[src + i] = b - 1
                m[dst + i] += 1
                m = tuple(m)
                out[m] = out.get(m, 0) + b * c
    return out


@cache
def _pairs(n):
    """Exponents of z_i z_j in n variables, indexed [i][j]: one table per n."""
    return tuple(tuple(tuple((k == i) + (k == j) for k in range(n))
                       for j in range(n)) for i in range(n))


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
    def integer_entries(self):
        """(den, entries): den the lcm of the matrix's denominators and
        entries the (k, l, den * a_kl) of the nonzero a_kl with k <= l,
        computed on first use, once per form."""
        den = lcm(*(a.denominator for row in self.matrix for a in row))
        return den, tuple((k, l, a.numerator * (den // a.denominator))
                          for k, row in enumerate(self.matrix)
                          for l, a in enumerate(row[k:], k) if a)

    def as_poly(self):
        """q as z^T A z by its own loop, not `_pairs`: selftest's projector
        oracle reads it, the one check that sees a wrong but injective y_dq."""
        out = {}
        for i, row in enumerate(self.matrix):
            for j in range(i, self.n):
                if row[j]:
                    e = [0] * self.n
                    e[i] += 1
                    e[j] += 1
                    out[tuple(e)] = row[j] if i == j else 2 * row[j]
        return Poly(self.n, 2, out)

