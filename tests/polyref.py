"""Reference polynomial arithmetic for the tests, on plain dicts.

A polynomial is {exponents: coeff} and a vector field is its terms
{(component, exponents): coeff}, the engine's own forms. Everything here
is summed term by term in Fractions, with none of the engine's int
scaling or shortcuts, so the engine's operators can be checked against
it; `liouville.polyspaces.Poly` keeps no arithmetic of its own.
"""

from fractions import Fraction


def ref_nonzero(acc):
    return {e: c for e, c in acc.items() if c}


def ref_add(f, g):
    out = dict(f)
    for e, c in g.items():
        out[e] = out.get(e, Fraction(0)) + c
    return ref_nonzero(out)


def ref_scale(f, c):
    return ref_nonzero({e: v * c for e, v in f.items()})


def ref_sub(f, g):
    return ref_add(f, ref_scale(g, -1))


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


def component(field, m):
    """Component m of a field given as its terms, as {exponents: coeff}."""
    return {e: c for (j, e), c in field.items() if j == m}


def ref_bracket(xi, eta, n):
    """[xi, eta]_m = sum_j xi_j d_j eta_m - eta_j d_j xi_m, component by
    component, on fields of n components given as their terms."""
    out = {}
    for m in range(n):
        acc = {}
        for j in range(n):
            acc = ref_add(acc, ref_mul(component(xi, j),
                                       ref_diff(component(eta, m), j)))
            acc = ref_sub(acc, ref_mul(component(eta, j),
                                       ref_diff(component(xi, m), j)))
        out.update(((m, e), c) for e, c in acc.items())
    return out


def ref_inverse(matrix):
    """The inverse of a nonsingular square matrix by Gauss-Jordan on
    Fractions, with no call into the engine's linear algebra."""
    n = len(matrix)
    rows = [[Fraction(x) for x in row] + [Fraction(int(i == j))
                                          for j in range(n)]
            for i, row in enumerate(matrix)]
    for c in range(n):
        p = next(r for r in range(c, n) if rows[r][c])
        rows[c], rows[p] = rows[p], rows[c]
        rows[c] = [x / rows[c][c] for x in rows[c]]
        for r in range(n):
            if r != c and rows[r][c]:
                f = rows[r][c]
                rows[r] = [x - f * y for x, y in zip(rows[r], rows[c])]
    return [row[n:] for row in rows]


def ref_laplacian(f, q):
    """Delta_q f = sum_{i,j} q^{ij} d_i d_j f, q^{ij} the entries of the
    inverse of the form's matrix."""
    inv = ref_inverse(q.matrix)
    out = {}
    for i in range(q.n):
        for j in range(q.n):
            if inv[i][j]:
                out = ref_add(out, ref_scale(ref_diff(ref_diff(f, i), j),
                                             inv[i][j]))
    return out
