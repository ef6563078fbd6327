"""Bott's algorithm on the full flag variety and its use on P(M) and Q.

`bott_cohomology` runs the rho-shift / sort / inversion-count procedure.
`sdg_cohomology_on_P` specializes it to the twisted symmetric powers of
G = Omega^1(1) on P(M); `les_restriction_to_Q` performs the long-exact-
sequence bookkeeping for the restriction to the quadric Q in P(M).
"""

from . import weights
from .weights import pad, weyl_dim


def rho(n):
    return tuple(range(n, 0, -1))


def bott_cohomology(a):
    """Bott's algorithm for H^*(F, O_F(a)) on the full flag variety of C^n.

    Returns None when a+rho has a repeated entry (no cohomology), else
    (degree, dominant_weight) with degree the inversion count of the sort.
    """
    a = weights.check_weight(a)
    n = len(a)
    v = [x + r for x, r in zip(a, rho(n))]
    if len(set(v)) < n:
        return None
    inversions = sum(
        1 for i in range(n) for j in range(i + 1, n) if v[i] < v[j]
    )
    srt = sorted(v, reverse=True)
    lam = tuple(x - r for x, r in zip(srt, rho(n)))
    if not weights.is_dominant(lam):
        raise ArithmeticError(f"sorted weight {lam} is not dominant")
    return inversions, lam


def sdg_weight(n, d, b):
    """Flag-variety weight encoding of S^d(G)(b) on P(M), dim M = n.

    Calibrated so that bott_cohomology reproduces the full eight-case
    table for S^d(G)(+-1): the twist b enters the last slot with a minus
    sign, -d sits in the next-to-last slot.
    """
    if n < 2:
        raise ValueError("need n >= 2")
    return (0,) * (n - 2) + (-d, -b)


def sdg_cohomology_on_P(n, d, b):
    """Graded cohomology of S^d(G)(b) on P(M): {i: {weight: mult}}."""
    if d < 0:
        raise ValueError("d must be nonnegative")
    res = bott_cohomology(sdg_weight(n, d, b))
    if res is None:
        return {}
    i, lam = res
    return {i: {lam: 1}}


def graded_dims(gc):
    """Dimension summary {i: dim} of a graded cohomology object."""
    return {i: weights.isotypic_dim(terms) for i, terms in gc.items()}


def coker_dim_formula(n, d):
    """dim Sigma^{d,2} - dim S^d for C^n; the cokernel size when injective."""
    return weyl_dim(pad((d, 2), n)) - weyl_dim(pad((d,), n))


def les_restriction_to_Q(n, d):
    """Cohomology of S^d(G)(1)|_Q from the multiplication-by-q sequence.

    Combines the cohomology of S^d(G)(-1) and S^d(G)(1) on P(M). For
    d >= 3 the connecting map is the vertical Young multiplication in
    degree d-1, which is injective; its cokernel dimension is
    coker_dim_formula(n, d-1), checked against the two Bott sides.
    Returns {i: dimension}.
    """
    if n < 3:
        raise ValueError("the quadric bookkeeping needs n >= 3")
    if d < 0:
        raise ValueError("d must be nonnegative")
    inner = sdg_cohomology_on_P(n, d, -1)
    outer = sdg_cohomology_on_P(n, d, +1)
    if d == 0:
        # 0 -> H^0(S^0(G)(1)) -> H^0(restriction) -> H^1(inner) = 0
        if inner or set(outer) != {0}:
            raise ArithmeticError(
                f"degree 0 restriction at n={n}: inner {inner}, outer {outer}")
        return {0: weights.isotypic_dim(outer[0])}
    if d in (1, 2):
        # inner contributes H^1 shifted into H^0 of the restriction
        dim0 = weights.isotypic_dim(outer.get(0, {}))
        dim0 += weights.isotypic_dim(inner.get(1, {}))
        return {0: dim0}
    # d >= 3: both sides live in H^1; the connecting map is injective
    src = weights.isotypic_dim(inner[1])   # S^{d-1}(M*)
    dst = weights.isotypic_dim(outer[1])   # Sigma^{d-1,2}(M*)
    coker = coker_dim_formula(n, d - 1)
    if coker != dst - src:
        raise ArithmeticError(
            f"cokernel dimension {coker} inconsistent with "
            f"injectivity at n={n}, d={d}: expected {dst - src}"
        )
    return {1: coker} if coker else {}


def graded_to_json(gc):
    out = {str(i): weights.isotypic_to_json(terms) for i, terms in gc.items()}
    return {"cohomology": out, "dims": {str(i): d for i, d in graded_dims(gc).items()}}
