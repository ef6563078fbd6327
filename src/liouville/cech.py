"""Cech cohomology of punctured affine space via the coordinate cover.

The cover of A^n minus the origin by U_i = {z_i != 0} splits the Cech
complex into one tiny complex per Laurent multidegree m: the subset I
contributes a 1-dimensional piece iff every negative exponent of m sits
inside I. That complex depends on m only through its negative support,
so the table computes one exact complex per support, 2^n in all, and
checks each against the closed form (H^0 on m >= 0, H^{n-1} on m <= -1,
nothing else).
"""

from itertools import combinations, product

from . import linalg


def neg_support(m):
    return frozenset(i for i, x in enumerate(m) if x < 0)


def admissible_subsets(n, m, p):
    """(p+1)-subsets of {0..n-1} containing the negative support of m."""
    supp = neg_support(m)
    if len(supp) > p + 1:
        return []
    rest = [i for i in range(n) if i not in supp]
    need = p + 1 - len(supp)
    return [tuple(sorted(supp | set(extra)))
            for extra in combinations(rest, need)]


def cech_slice(n, m):
    """Cohomology dimensions of the multidegree-m slice.

    Returns (cochain_dims, cohomology_dims), both lists indexed by the
    cochain level p = 0..n-1.
    """
    m = tuple(int(x) for x in m)
    if len(m) != n or n < 1:
        raise ValueError("multidegree length must equal n >= 1")
    levels = [admissible_subsets(n, m, p) for p in range(n)]
    cochain = [len(s) for s in levels]
    # differential C^p -> C^{p+1}: insert one index with alternating sign
    ranks = []
    for p in range(n - 1):
        src = levels[p]
        dst = {I: i for i, I in enumerate(levels[p + 1])}
        cols = []
        for I in src:
            col = {}
            for k in range(n):
                if k in I:
                    continue
                J = tuple(sorted(I + (k,)))
                col[dst[J]] = (-1) ** J.index(k)
            cols.append(col)
        ranks.append(linalg.rank_sparse(cols))
    cohom = []
    for p in range(n):
        incoming = ranks[p - 1] if p > 0 else 0
        outgoing = ranks[p] if p < n - 1 else 0
        cohom.append(cochain[p] - incoming - outgoing)
    return cochain, cohom


def closed_form(n, m):
    """The claimed cohomology of the slice: {i: dim}."""
    m = tuple(m)
    out = {}
    if all(x >= 0 for x in m):
        out[0] = 1
    if all(x <= -1 for x in m):
        out[n - 1] = out.get(n - 1, 0) + 1
    return out


def punctured_affine_table(n, box):
    """Slice cohomology over the box |m_i| <= box.

    Returns a list of (m, i, dim) rows with dim > 0, sorted, plus totals
    per total degree. The slice complex of m is built from
    admissible_subsets, which read m only through its negative support S,
    and the closed form reads it only through S too (m >= 0 is S empty,
    m <= -1 is S everything). So one exact complex per support S, at the
    representative with -1 on S and 0 elsewhere, checks every slice of
    the box that has support S against the closed form; a mismatch
    raises. Supports with no multidegree in the box (every S but the
    empty one when box = 0) are skipped.
    """
    if n < 1:
        raise ValueError("need n >= 1")
    if box < 0:
        raise ValueError("need box >= 0")
    rows = []
    totals = {}
    for signs in product((False, True), repeat=n):
        if box == 0 and any(signs):
            continue
        rep = tuple(-1 if neg else 0 for neg in signs)
        _, cohom = cech_slice(n, rep)
        dims = {i: d for i, d in enumerate(cohom) if d}
        if dims != closed_form(n, rep):
            raise ArithmeticError(
                f"Cech slice {rep} disagrees with the closed form: "
                f"{dims} vs {closed_form(n, rep)}"
            )
        if not dims:
            continue
        ranges = [range(-box, 0) if neg else range(box + 1) for neg in signs]
        for m in product(*ranges):
            deg = sum(m)
            for i, d in sorted(dims.items()):
                rows.append((m, i, d))
                totals.setdefault(deg, {}).setdefault(i, 0)
                totals[deg][i] += d
    rows.sort()
    return rows, totals
