"""GL(n) weights: dominance and the Weyl dimension formula.

A weight is a plain tuple of n integers. Dominance (weakly decreasing) is
checked where an operation requires it, never baked into a type, since
Bott's algorithm needs arbitrary integer weights. `_perm_sign` is the one
sign of a permutation, for Bott's check and the Young oracle. `sym_dim`
is the one binomial dim S^d, which the checks of Weyl dimensions read.
"""

from math import comb


def is_dominant(w):
    return all(w[i] >= w[i + 1] for i in range(len(w) - 1))


def check_weight(w):
    w = tuple(int(x) for x in w)
    if not w:
        raise ValueError("weight must have positive length")
    return w


def weyl_dim(lam):
    """Dimension of the irreducible GL(n) representation of highest weight lam.

    prod over i<j of (lam_i - lam_j + j - i)/(j - i); exact integer.
    Pairs with lam_i == lam_j give exactly 1 and are skipped.
    """
    lam = check_weight(lam)
    if not is_dominant(lam):
        raise ValueError(f"weight {lam} is not dominant")
    n = len(lam)
    num = 1
    den = 1
    for i in range(n):
        for j in range(i + 1, n):
            if lam[i] != lam[j]:
                num *= lam[i] - lam[j] + j - i
                den *= j - i
    d, r = divmod(num, den)
    if r:
        raise ArithmeticError(f"Weyl dimension of {lam} is not an integer")
    return d


def _perm_sign(p):
    """Sign of a permutation via cycle decomposition."""
    seen = [False] * len(p)
    sign = 1
    for i in range(len(p)):
        if seen[i]:
            continue
        length = 0
        j = i
        while not seen[j]:
            seen[j] = True
            j = p[j]
            length += 1
        if length % 2 == 0:
            sign = -sign
    return sign


def pad(lam, n):
    """Pad a partition with zeros to length n; error if it does not fit."""
    lam = tuple(lam)
    if len(lam) > n:
        if any(lam[n:]):
            raise ValueError(f"weight {lam} does not fit in {n} rows")
        return lam[:n]
    return lam + (0,) * (n - len(lam))


def sym_dim(n, d):
    """dim S^d(C^n), the binomial C(n+d-1, d): the count that the Weyl
    dimensions are set against. 0 for d < 0, and for d > 0 on n < 1."""
    if d < 0 or (d > 0 and n < 1):
        return 0
    return comb(n + d - 1, d) if d > 0 else 1

