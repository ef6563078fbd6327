"""Bott's algorithm on the full flag variety and its use on P(M) and Q.

`bott_cohomology` runs the rho-shift / sort / inversion-count procedure.
`sdg_cohomology_on_P` specializes it to the twisted symmetric powers of
G = Omega^1(1) on P(M) and checks every answer at twist +-1 against
`sdg_table`, the paper's eight-case table. Its readers take an answer's
dimension from `_sdg_dim`, which checks the Weyl dimension at twist +-1
against the binomials of that case's partition; `les_restriction_to_Q`
reads the dimensions of those two answers into the long exact sequence
of the restriction to the quadric Q in P(M).
"""

from . import weights
from .weights import _perm_sign, pad, sym_dim, weyl_dim


def rho(n):
    return tuple(range(n, 0, -1))


def bott_cohomology(a):
    """Bott's algorithm for H^*(F, O_F(a)) on the full flag variety of C^n.

    Returns None when a+rho has a repeated entry (no cohomology), else
    (degree, dominant_weight) with degree the inversion count of the sort.
    a+rho is sorted once, and None comes only when that sort has two
    equal neighbours. Raises ArithmeticError unless the sort, which is
    lam+rho, is strictly decreasing and (-1)^degree is the sign of its
    permutation, counted by cycles.
    """
    a = weights.check_weight(a)
    n = len(a)
    v = [x + r for x, r in zip(a, rho(n))]
    order = sorted(range(n), key=v.__getitem__, reverse=True)
    down = [v[i] for i in order]
    if any(x == y for x, y in zip(down, down[1:])):
        return None
    inversions = sum(
        1 for i in range(n) for j in range(i + 1, n) if v[i] < v[j]
    )
    res = inversions, tuple(x - r for x, r in zip(down, rho(n)))
    if any(x < y for x, y in zip(down, down[1:])) or (
            (-1) ** res[0] != _perm_sign(order)):
        raise ArithmeticError(f"Bott gives {res} for weight {a}, not a+rho "
                              f"sorted strictly downwards with its sign")
    return res


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


def _sdg_dim(n, d, b, gc):
    """Dimension of the answer gc of `sdg_cohomology_on_P(n, d, b)`: 0 for
    None, else the Weyl dimension of its weight lam. At b = +-1 that must
    be Jacobi-Trudi's h_p h_q - h_{p+1} h_{q-1}, h_m = C(n+m-1, m), for the
    partition (p, q) that lam is dual to.
    """
    if gc is None:
        return 0
    dim = weyl_dim(lam := gc[1])
    if b in (-1, 1):
        h = lambda m: sym_dim(n, m)
        p, q = -lam[-1], -lam[-2]
        if dim != h(p) * h(q) - h(p + 1) * h(q - 1):
            raise ArithmeticError(f"S^{d}(G)({b}) on P(C^{n}) has Weyl "
                                  f"dimension {dim}, not Jacobi-Trudi's")
    return dim


def les_restriction_to_Q(n, d):
    """Cohomology of S^d(G)(1)|_Q from the multiplication-by-q sequence.

    Combines the cohomology of S^d(G)(-1) (inner) and S^d(G)(1) (outer) on
    P(M), answers that `sdg_cohomology_on_P` has pinned to `sdg_table`:
    inner sits in H^1 for d >= 1, outer in H^0 for d <= 1 and in H^1 for
    d >= 3. For d <= 2 everything lands in H^0. For d >= 3 the connecting
    map H^1(inner) -> H^1(outer) is the vertical Young multiplication in
    degree d-1, which is injective, and H^1 is Bott's number dim
    H^1(outer) - dim H^1(inner), from `_sdg_dim`; `reconf_table` checks
    it against the binomials of `young_map.coker_dim_formula`.
    Returns {i: dimension}.
    """
    if n < 3:
        raise ValueError("the quadric bookkeeping needs n >= 3")
    inner, outer = (_sdg_dim(n, d, b, sdg_cohomology_on_P(n, d, b))
                    for b in (-1, 1))
    if d < 3:
        # H^0(outer) -> H^0(restriction) -> H^1(inner) -> H^1(outer) = 0
        return {0: outer + inner}
    return {1: outer - inner}
