"""Exact rational linear algebra: rank, nullspace, RREF.

One sparse fraction-free eliminator does all of it. Vectors are
{index: value} dicts with int or Fraction values; each is cleared to a
primitive integer vector and reduced against the pivots found so far with
integer cross-multiplication (Bareiss-style, no Fractions inside the
loop). A back-substitution pass then gives the reduced row echelon form,
which is unique, so kernels and solutions are reproducible bit-for-bit.
Matrices come as sparse columns {row: value}; rref hands back sparse
rows {column: Fraction} and nullspace sparse vectors {column: Fraction}.
Only `rank` takes dense rows, for small dense inputs such as a Gram
matrix.
"""

from fractions import Fraction
from math import gcd, lcm


def _primitive(vec):
    """Nonzero entries of a sparse vector, scaled to coprime integers."""
    denom = 1
    for x in vec.values():
        if isinstance(x, Fraction):
            denom = lcm(denom, x.denominator)
    out = {i: int(x * denom) for i, x in vec.items() if x}
    g = gcd(*out.values())
    if g > 1:
        out = {i: x // g for i, x in out.items()}
    return out


def _eliminate(vec, piv, i):
    """Integer combination of vec and piv with entry i cancelled."""
    a, b = piv[i], vec[i]
    g = gcd(a, b)
    fa, fb = a // g, b // g
    new = {}
    for k in set(vec) | set(piv):
        val = fa * vec.get(k, 0) - fb * piv.get(k, 0)
        if val:
            new[k] = val
    return new


def _echelon(vectors, reduced=False):
    """Fraction-free echelon basis of the span of sparse vectors.

    Returns {lead: vector}, each vector primitive and integral with its
    smallest index `lead`. Incremental: each vector is reduced against the
    pivots found so far, which keeps large, mostly-empty matrices cheap.
    With `reduced`, every pivot vector is also cleared at the other leads.
    """
    pivots = {}
    for vec in vectors:
        vec = _primitive(vec)
        while vec:
            lead = min(vec)
            if lead not in pivots:
                pivots[lead] = _primitive(vec)
                break
            vec = _eliminate(vec, pivots[lead], lead)
    if reduced:
        leads = sorted(pivots)
        for k in range(len(leads) - 2, -1, -1):
            vec = pivots[leads[k]]
            for lead in leads[k + 1:]:
                if lead in vec:
                    vec = _eliminate(vec, pivots[lead], lead)
            pivots[leads[k]] = _primitive(vec)
    return pivots


def rank(rows):
    """Exact rank of a matrix given as a list of dense rows."""
    return len(_echelon({j: x for j, x in enumerate(r) if x} for r in rows))


def rank_sparse(columns):
    """Exact rank of a matrix given as sparse columns ({row: value})."""
    return len(_echelon(columns))


def rref(columns):
    """Reduced row echelon form over Q of a matrix given as sparse columns.

    Returns (rows, pivot_columns): each row a sparse {column: Fraction}
    dict with 1 at its pivot column, in pivot order. Inputs are not
    modified.
    """
    rows = {}
    for j, col in enumerate(columns):
        for i, x in col.items():
            if x:
                rows.setdefault(i, {})[j] = x
    pivots = _echelon(rows.values(), reduced=True)
    leads = sorted(pivots)
    return [{j: Fraction(x, pivots[lead][lead])
             for j, x in pivots[lead].items()} for lead in leads], leads


def nullspace(columns):
    """Basis of the right kernel of a matrix given as sparse columns.

    The basis is read off the reduced row echelon form: one sparse
    {column: Fraction} vector per free column j, holding 1 at j and minus
    the pivot rows' entries in column j at their pivots.
    """
    red, pivots = rref(columns)
    pivset = set(pivots)
    basis = []
    for j in range(len(columns)):
        if j in pivset:
            continue
        v = {j: Fraction(1)}
        for row, pc in zip(red, pivots):
            if j in row:
                v[pc] = -row[j]
        basis.append(v)
    return basis
