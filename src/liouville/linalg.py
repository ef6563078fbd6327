"""Exact rational linear algebra: rank, nullspace, RREF.

One sparse fraction-free column echelon does all of it. Matrices come as
sparse columns {row: value} with int or Fraction values. Each column j is
cleared to integers, tagged {j: denominator}, and reduced against the
pivots found so far by integer cross-multiplication (Bareiss-style, no
Fractions inside the loop); every combination is applied to its tag as
well, so a tag always says which combination of the input columns its
vector is. A column that reduces to zero leaves its tag as a relation:
the kernel vector with a nonzero entry at j and its other entries on
the pivot columns before j. That vector is unique up to scale, so the
kernel scaled to 1 at each free column and the reduced row echelon form
read off the relations are reproducible bit-for-bit. rref hands back
sparse rows {column: Fraction} and nullspace sparse vectors
{column: Fraction}. Only `rank` takes dense rows, for small dense inputs
such as a Gram matrix.
"""

from fractions import Fraction
from math import gcd, lcm


def _combine(u, fu, w, fw):
    """fu * u - fw * w of sparse integer vectors, zeros dropped."""
    out = {k: fu * x for k, x in u.items()} if fu != 1 else dict(u)
    for k, x in w.items():
        val = out.get(k, 0) - fw * x
        if val:
            out[k] = val
        else:
            del out[k]
    return out


def _echelon(columns):
    """Fraction-free column echelon of a matrix given as sparse columns.

    Returns (pivots, relations): the columns that are independent of the
    ones before them, in order, and {j: tag} for every other column j,
    where the tag is an integer {column: coefficient} relation (the sum
    of tag[k] times column k is zero) with tag[j] != 0 and its other keys
    pivots before j. Incremental: each column is reduced only against
    the pivots it meets, which keeps large, mostly-empty matrices cheap.
    """
    leads, pivots, relations = {}, [], {}
    for j, col in enumerate(columns):
        den = 1
        for x in col.values():
            if isinstance(x, Fraction):
                den = lcm(den, x.denominator)
        vec = {i: int(x * den) for i, x in col.items() if x}
        tag = {j: den}
        while vec:
            lead = min(vec)
            if lead not in leads:
                g = gcd(*vec.values(), *tag.values())
                if g > 1:
                    vec = {i: x // g for i, x in vec.items()}
                    tag = {k: x // g for k, x in tag.items()}
                leads[lead] = vec, tag
                pivots.append(j)
                break
            pvec, ptag = leads[lead]
            g = gcd(pvec[lead], vec[lead])
            fu, fw = pvec[lead] // g, vec[lead] // g
            vec = _combine(vec, fu, pvec, fw)
            tag = _combine(tag, fu, ptag, fw)
        else:
            relations[j] = tag
    return pivots, relations


def rank(rows):
    """Exact rank of a matrix given as a list of dense rows."""
    return len(_echelon({j: x for j, x in enumerate(r) if x}
                        for r in rows)[0])


def rank_sparse(columns):
    """Exact rank of a matrix given as sparse columns ({row: value})."""
    return len(_echelon(columns)[0])


def rref(columns):
    """Reduced row echelon form over Q of a matrix given as sparse columns.

    Returns (rows, pivot_columns): each row a sparse {column: Fraction}
    dict with 1 at its pivot column, in pivot order. A free column j is
    -tag[p] / tag[j] times pivot column p summed over its relation, so
    that is row p's entry at j. Inputs are not modified.
    """
    pivots, relations = _echelon(columns)
    rows = {p: {p: Fraction(1)} for p in pivots}
    for j, tag in relations.items():
        for p, x in tag.items():
            if p != j:
                rows[p][j] = Fraction(-x, tag[j])
    return [rows[p] for p in pivots], pivots


def nullspace(columns):
    """Basis of the right kernel of a matrix given as sparse columns.

    One sparse {column: Fraction} vector per free column j: its relation
    scaled to 1 at j, with the entries at its pivot columns in order.
    """
    basis = []
    for j, tag in _echelon(columns)[1].items():
        v = {j: Fraction(1)}
        for p in sorted(tag):
            if p != j:
                v[p] = Fraction(tag[p], tag[j])
        basis.append(v)
    return basis
