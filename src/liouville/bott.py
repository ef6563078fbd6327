"""Bott's algorithm on the full flag variety and its use on P(M) and Q.

`bott_cohomology` runs the rho-shift / sort / inversion-count procedure.
`sdg_cohomology_on_P` specializes it to the twisted symmetric powers of
G = Omega^1(1) on P(M) and checks every answer at twist +-1 against
`sdg_table`, the paper's eight-case table; `les_restriction_to_Q` reads
the dimensions of those two answers into the long exact sequence of the
restriction to the quadric Q in P(M).
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

    Calibrated so that bott_cohomology reproduces `sdg_table`, the
    eight-case table for S^d(G)(+-1): the twist b enters the last slot
    with a minus sign, -d sits in the next-to-last slot.
    """
    if n < 2:
        raise ValueError("need n >= 2")
    return (0,) * (n - 2) + (-d, -b)


def sdg_table(n, d, b):
    """The eight cases of S^d(G)(b) on P(C^n) at b = +-1, in closed form:
    None, or (degree, weight), the weight dual to the partition named."""
    if b not in (-1, 1):
        raise ValueError("the table covers the twists b = +-1")
    if b == -1:
        case = (1, (d - 1,)) if d else None        # S^{d-1}(M*)
    elif d < 3:
        case = ((0, (1,)), (0, (1, 1)), None)[d]   # M*, Lambda^2(M*), 0
    else:
        case = (1, (d - 1, 2))                     # Sigma^{d-1,2}(M*)
    return case and (case[0], tuple(-x for x in reversed(pad(case[1], n))))


def sdg_cohomology_on_P(n, d, b):
    """Cohomology of S^d(G)(b) on P(M): None, or (degree, weight).

    S^d(G)(b) is irreducible, so Bott's theorem puts all of its
    cohomology in one degree, as one piece of multiplicity 1. At b = +-1
    an answer other than `sdg_table`'s is an integrity failure.
    """
    if d < 0:
        raise ValueError("d must be nonnegative")
    res = bott_cohomology(sdg_weight(n, d, b))
    if b in (-1, 1) and res != (want := sdg_table(n, d, b)):
        raise ArithmeticError(
            f"S^{d}(G)({b}) on P(C^{n}) has cohomology {res}, not {want}")
    return res


def les_restriction_to_Q(n, d):
    """Cohomology of S^d(G)(1)|_Q from the multiplication-by-q sequence.

    Combines the cohomology of S^d(G)(-1) (inner) and S^d(G)(1) (outer) on
    P(M), answers that `sdg_cohomology_on_P` has pinned to `sdg_table`:
    inner sits in H^1 for d >= 1, outer in H^0 for d <= 1 and in H^1 for
    d >= 3. For d <= 2 everything lands in H^0. For d >= 3 the connecting
    map H^1(inner) -> H^1(outer) is the vertical Young multiplication in
    degree d-1, which is injective, and H^1 is Bott's number dim
    H^1(outer) - dim H^1(inner), from `weyl_dim`; `reconf_table` checks
    it against the binomials of `young_map.coker_dim_formula`.
    Returns {i: dimension}.
    """
    if n < 3:
        raise ValueError("the quadric bookkeeping needs n >= 3")
    inner, outer = (0 if gc is None else weyl_dim(gc[1]) for gc in
                    (sdg_cohomology_on_P(n, d, b) for b in (-1, 1)))
    if d < 3:
        # H^0(outer) -> H^0(restriction) -> H^1(inner) -> H^1(outer) = 0
        return {0: outer + inner}
    return {1: outer - inner}


def graded_to_json(gc):
    """JSON form of a `sdg_cohomology_on_P` answer."""
    if gc is None:
        return {"cohomology": {}, "dims": {}}
    i, lam = gc
    return {"cohomology": {str(i): [{"weight": list(lam), "multiplicity": 1}]},
            "dims": {str(i): weyl_dim(lam)}}
