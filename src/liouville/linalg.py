"""Exact rational linear algebra: rank, nullspace, RREF, coordinates.

One sparse fraction-free column echelon does all of it, and no other
module reads one. Matrices come as sparse columns {row: value} with int
or Fraction values, and the echelon is where their denominators are
cleared: a column of nonzero ints, as the y_{d,q} and Killing columns
are, is taken as it is after one type check of its entries; any other
column is cleared to integers with its zeros dropped, and one holding a
float is refused with ValueError. Column j is tagged {j: denominator}
and reduced against the pivots found so far by integer
cross-multiplication (Bareiss-style, no Fractions inside the loop);
every combination is applied to its tag as well, so a tag always says
which combination of the input columns its vector is. A column that
reduces to zero leaves its tag as a relation: the kernel vector with a
nonzero entry at j and its other entries on the pivot columns p before
j. That vector is unique up to scale, so one readout, `_relation`,
scales it to 1 at j: it is the kernel vector, and its negatives are j's
coordinates over those pivots (rref's entries, and solve's answer for
targets placed after the columns). All three are reproducible
bit-for-bit, as sparse {column: value} dicts, pivots in increasing
order, ints where integral (`_exact`). Only `rank` takes dense rows, for
small dense inputs.
"""

from fractions import Fraction
from math import gcd, lcm


def _exact(c):
    """The rational c as an int when it is integral, else as a Fraction."""
    if type(c) is int:
        return c
    if type(c) is not Fraction:
        if isinstance(c, float):
            raise ValueError(f"{c!r} is a float: give an int or a Fraction")
        c = Fraction(c)
    return c.numerator if c.denominator == 1 else c


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
        vec, den = col, 1
        for x in col.values():
            if type(x) is not int or not x:
                # a Fraction, even Fraction(3, 1), a zero or a float,
                # which _exact refuses: rebuild the column; an all-int one
                # is kept, as nothing below modifies vec in place
                den = lcm(*(_exact(v).denominator for v in col.values()))
                vec = {i: x.numerator * (den // x.denominator)
                       for i, x in col.items() if x}
                break
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


def _relation(tag, j):
    """The kernel vector of relation tag scaled to 1 at its column j,
    without that 1: tag[p] / tag[j] at each pivot p, an int where
    integral. Column j's coordinates over those pivots are its negatives."""
    return {p: _exact(Fraction(tag[p], tag[j])) for p in sorted(tag) if p != j}


def rref(columns):
    """Reduced row echelon form over Q of a matrix given as sparse columns.

    Returns (rows, pivot_columns): each row a sparse {column: value}
    dict with 1 at its pivot column, in pivot order, and at each free
    column j its coordinate at that pivot. Inputs are not modified.
    """
    pivots, relations = _echelon(columns)
    rows = {p: {p: 1} for p in pivots}
    for j, tag in relations.items():
        for p, x in _relation(tag, j).items():
            rows[p][j] = -x
    return [rows[p] for p in pivots], pivots


def solve(columns, targets):
    """Coordinates {pivot column: value} of each of the sparse targets
    over the sparse columns (two lists), read off its relation in one
    echelon of the columns followed by the targets. The list stops before
    the first target outside the columns' span; a caller checks its length."""
    out, relations = [], _echelon(columns + targets)[1]
    while (j := len(columns) + len(out)) in relations:
        out.append({p: -x for p, x in _relation(relations[j], j).items()})
    return out


def nullspace(columns):
    """Basis of the right kernel of a matrix given as sparse columns.

    One sparse {column: value} vector (ints where integral) per free
    column j: its relation scaled to 1 at j, with the entries at its pivot
    columns in order.
    """
    return [{j: 1, **_relation(tag, j)}
            for j, tag in _echelon(columns)[1].items()]
