"""The vertical Young multiplication S^d(M*) -> Sigma^{d,2}(M*).

Sigma^{d,2} is realized in the (x, y) ring of `polyspaces`, 2n variables
x_1..x_n then y_1..y_n, as ker R in bidegree (d,2), R = sum_i x_i d/dy_i
((GL_n, GL_2) Howe duality), cut out by the sl_2 extremal projector in R
and L = sum_i y_i d/dx_i alone. The map sends f to the projection of
f(x)*q(y). With B(x, y) = sum a_ij x_i y_j, R kills f(x), R q(y) = 2B and
R B = q(x), while the derivation L has L B = q(y) and L q(x) = 2B; put
into the projector these give the closed form

    d(d+1) y_dq(f, q) = d(d-1) f q(y) - 2(d-1) (L f) B + (L^2 f) q(x),

which `y_dq` evaluates in one integer pass. The generic projector,
`project_isotypic`, is its oracle. A Young-symmetrizer realization in
V^{tensor (d+2)}, on its column-strict words, is kept as a small-scale
independent oracle of the ranks.
"""

from fractions import Fraction
from itertools import combinations, permutations, product
from math import factorial, prod

from . import linalg
from .polyspaces import (Poly, QuadraticForm, _pairs, _polarize, bipoly_basis,
                         monomials)
from .weights import _perm_sign, pad, sym_dim, weyl_dim


def casimir_apply(F):
    """Quadratic Casimir sum_{i,j} E_ij E_ji of gl_n on a Poly F in (x, y),
    E_ij = x_i d/dx_j + y_i d/dy_j. By the Capelli identity it is
    d^2 + e^2 + (n-1)d + (n-3)e + 2 L R on each bidegree (d, e) of F."""
    n = F.n // 2
    out = {}
    for k, c in F.coeffs.items():
        d, e = sum(k[:n]), sum(k[n:])
        out[k] = (d * d + e * e + (n - 1) * d + (n - 3) * e) * c
    for k, c in _polarize(_polarize(F.coeffs, n, n, 0), n, 0, n).items():
        out[k] = out.get(k, 0) + 2 * c
    return Poly(F.n, F.degree, out)


def casimir_scalar(lam, n):
    """Casimir eigenvalue on the irreducible of highest weight lam."""
    lam = pad(lam, n)
    return sum(x * (x + n + 1 - 2 * (i + 1)) for i, x in enumerate(lam))


def project_isotypic(F):
    """Project a bidegree-(d,2) element onto its Sigma^{d,2} component.

    Sigma^{d,2} is ker R there and the other Pieri constituents (d+2) and
    (d+1, 1) lie in im L, so this is the sl_2 extremal projector
    sum_k (-1)^k L^k R^k / (k! (h+2)..(h+k+1)) at h = d - 2, cut at k = 2
    as R^3 kills y-degree 2: 1 - L R / d + L^2 R^2 / (2d(d+1)), run on
    F's coefficients as they are as 2d(d+1) F + L(L R^2 F - 2(d+1) R F)
    and divided once.
    On F = f(x) q(y) it is y_dq(f, q), which runs the closed form
    instead: this generic projector is the oracle of that closed form.
    """
    n, d = F.n // 2, F.degree - 2
    if F.n % 2 or any(sum(e[n:]) != 2 for e in F.coeffs):
        raise ValueError(f"not of bidegree ({d}, 2) in x, y")
    if d < 2:
        raise ValueError("shape (d,2) needs d >= 2")
    RG = _polarize(F.coeffs, n, n, 0)
    T = _polarize(_polarize(RG, n, n, 0), n, 0, n)
    for k, c in RG.items():
        T[k] = T.get(k, 0) - 2 * (d + 1) * c
    out = {k: 2 * d * (d + 1) * c for k, c in F.coeffs.items()}
    for k, c in _polarize(T, n, 0, n).items():
        out[k] = out.get(k, 0) + c
    K = 2 * d * (d + 1)
    return Poly(F.n, F.degree,
                {k: Fraction(c, K) for k, c in out.items() if c})


def y_dq(f, q):
    """Vertical Young multiplication by q applied to f, in x and y.

    The projection of f(x) q(y), evaluated from the closed form
    d(d+1) y = d(d-1) f q(y) - 2(d-1) (L f) B + (L^2 f) q(x) of the module
    docstring. q's integer entries den_q a_kl, k <= l, come once per form
    (`QuadraticForm.integer_entries`), the exponents of y_i y_j from
    `_pairs`; each term c x^e of f, each entry and each unordered pair
    i <= j of f's support add into one dict, of ints when f's coefficients
    are ints, as they are in `y_dq_columns`. A symmetric term with k != l
    or i != j stands for two ordered ones and counts twice, and each of
    B's off-diagonal entries gives its two terms x_k y_l and x_l y_k. The
    sum is divided once by K = den_q d(d+1): a coefficient is an int when
    it is integral and a Fraction otherwise.
    """
    n, d = f.n, f.degree
    if d < 2:
        raise ValueError("y_dq needs degree >= 2")
    if n != q.n:
        raise ValueError("variable-count mismatch")
    den_q, entries = q.integer_entries
    yy = _pairs(n)
    fq, lb = d * (d - 1), -2 * (d - 1)
    out = {}
    for e, c in f.coeffs.items():
        support = [i for i, b in enumerate(e) if b]
        for k, l, a in entries:
            ca = c * a
            cq = ca if k == l else 2 * ca  # coefficient of x_k x_l in q
            key = e + yy[k][l]  # f q(y)
            out[key] = out.get(key, 0) + fq * cq
            for s, i in enumerate(support):
                m = list(e)
                m[i] -= 1
                w = lb * e[i] * ca
                m[k] += 1
                key = tuple(m) + yy[i][l]  # (L f) B, term x_k y_l
                out[key] = out.get(key, 0) + w
                m[l] += 1
                if k != l:
                    m[k] -= 1
                    key = tuple(m) + yy[i][k]  # term x_l y_k
                    out[key] = out.get(key, 0) + w
                    m[k] += 1
                for j in support[s:]:
                    w = e[i] * (e[j] - 1) if i == j else 2 * e[i] * e[j]
                    if w:
                        m[j] -= 1
                        key = tuple(m) + yy[i][j]  # (L^2 f) q(x)
                        out[key] = out.get(key, 0) + w * cq
                        m[j] += 1
    K = den_q * d * (d + 1)
    y = Poly(2 * n, d + 2)
    for key, c in out.items():
        if c:
            v, r = divmod(c, K)
            y.coeffs[key] = Fraction(c, K) if r else v
    return y


def y_dq_columns(n, d, q=None):
    """Sparse int columns of y_dq : S^d -> bidegree-(d,2) space, each
    y_dq(K x^e, q) for K = den d(d+1), den the lcm of the denominators of
    q's matrix: K is y_dq's divisor, so every column is its integer sums,
    and rank and kernel are those of y_dq."""
    q = q if q is not None else QuadraticForm.standard(n)
    K = q.integer_entries[0] * d * (d + 1)
    src = monomials(n, d)
    index = {k: i for i, k in enumerate(bipoly_basis(n, d, 2))}
    cols = [{index[k]: c
             for k, c in y_dq(Poly(n, d, {e: K}), q).coeffs.items()}
            for e in src]
    return cols, src


def y_dq_kernel(n, d, q=None):
    """Exact kernel basis of y_dq on S^d, as Polys."""
    cols, src = y_dq_columns(n, d, q)
    return [Poly(n, d, {src[j]: x for j, x in v.items()})
            for v in linalg.nullspace(cols)]


def coker_dim_formula(n, d):
    """dim Sigma^{d,2} - dim S^d for C^n in binomials, by Pieri's rule
    S^d S^2 = S^(d+1) V + Sigma^{d,2}; y_dq's cokernel size at n >= 3."""
    return (sym_dim(n, d) * sym_dim(n, 2) - n * sym_dim(n, d + 1)
            - sym_dim(n, d))


def _pieri(what, n, d, dims):
    """dims, the (ker, coker) of the realization `what` of y_dq at n >= 2.
    Raises ArithmeticError unless it is (0, coker_dim_formula(n, d)) at
    n >= 3, where y_dq is injective, or (2, 0) at n = 2, where it kills
    exactly the two dimensions of H_d."""
    expected = (2, 0) if n == 2 else (0, coker_dim_formula(n, d))
    if dims != expected:
        raise ArithmeticError(f"{what} at n={n}, d={d} has (ker, coker) = "
                              f"{dims}, not the Pieri count {expected}")
    return dims


def kernel_cokernel_dims(n, d, q=None):
    """(ker, coker) of y_dq via exact rank, checked by `_pieri`; coker
    relative to Sigma^{d,2} of `weyl_dim`'s dimension."""
    if d < 2 or n < 2:
        raise ValueError("need d >= 2 and n >= 2")
    cols, src = y_dq_columns(n, d, q)
    r = linalg.rank_sparse(cols)
    return _pieri("y_dq", n, d, (len(src) - r, weyl_dim(pad((d, 2), n)) - r))


# ---------------------------------------------------------------------------
# Young-symmetrizer oracle (desk-scale tensor realization)
#
# c_lam = a_lam b_lam acts on tensor words by permuting slots,
# (p.w)[i] = w[p[i]]. Since (a_lam v)[w] = |Stab_R(w)| * (sum of v over
# the row orbit R.w), every row of c_lam is constant on a row orbit: rows
# are keyed by orbit and only b_lam's signed column permutations are
# applied. As b_lam sigma = sgn(sigma) b_lam for sigma in the column group,
# the column of sigma.w is sgn(sigma) times that of w, and it is zero when
# a tableau column of w repeats a letter. So only the column-strict words,
# letters strictly increasing down each column, get a column: the others
# are signed copies of them or zero, and the rank is unchanged. Both
# ranks are taken with linalg.rank_sparse.
# ---------------------------------------------------------------------------

# the largest tensor space n^k the CLI admits to the oracle; the words
# enumerated are its column-strict ones, 27 of 243 at ((3, 2), n = 3)
ORACLE_WORDS = 243


def _tableau_slots(lam):
    """Tensor slots of each row and of each column of lam, row by row."""
    rows, start = [], 0
    for length in lam:
        rows.append(range(start, start + length))
        start += length
    cols = [[row[c] for row in rows if c < len(row)] for c in range(lam[0])]
    return rows, cols


def _block_perms(blocks, k):
    """Permutations of k tensor slots that map each block to itself."""
    perms = [tuple(range(k))]
    for block in blocks:
        new = []
        for sigma in permutations(block):
            for p in perms:
                q = list(p)
                for slot, tgt in zip(block, sigma):
                    q[slot] = p[tgt]
                new.append(tuple(q))
        perms = new
    return perms


def _stabilizer_order(orbit):
    """|Stab_R(w)| for w in the row orbit: prod of m! over repeated letters."""
    return prod(factorial(row.count(a)) for row in orbit for a in set(row))


def young_symmetrizer_columns(lam, n):
    """The Young symmetrizer c_lam = a_lam b_lam on V^{tensor k}.

    Returns {word: column} for the column-strict words only, prod over the
    tableau columns of C(n, height) of them: any other word's column is
    sgn(sigma) times that of its column-sorted word, or zero. A column is
    keyed by row orbit, the sorted letters of each tableau row, and holds
    |Stab_R| times the signed count of b_lam's images of the word in that
    orbit. Guarded to n^k <= ORACLE_WORDS.
    """
    lam = tuple(x for x in lam if x)
    k = sum(lam)
    if n ** k > ORACLE_WORDS:
        raise ValueError("tensor space too large for the oracle")
    rows, cols = _tableau_slots(lam)
    signed = [(p, _perm_sign(p)) for p in _block_perms(cols, k)]
    out = {}
    for choice in product(*(combinations(range(n), len(c)) for c in cols)):
        w = [0] * k
        for col, letters in zip(cols, choice):
            for slot, a in zip(col, letters):
                w[slot] = a
        acc = {}
        for p, s in signed:
            orbit = tuple(tuple(sorted(w[p[i]] for i in row)) for row in rows)
            acc[orbit] = acc.get(orbit, 0) + s
        out[tuple(w)] = {orbit: c * _stabilizer_order(orbit)
                         for orbit, c in acc.items() if c}
    return out


def _oracle_y_columns(c_lam, n, d, q):
    """Columns of f -> c_{(d,2)}(sym(f) tensor q), keyed by row orbit,
    over the monomials of S^d; c_lam = young_symmetrizer_columns((d, 2), n).

    Slots 0 and 1 top the two two-cell columns, and the one-cell slots
    2..d-1 only permute within row 0, commuting with the column group:
    c_lam is unchanged by them. So the words of sym(x^e) are taken once
    per pair of letters (a, b) in slots 0 and 1, weighted by the
    multinomial count of the rest, and each word + ij goes to the signed
    column of its column-sorted word, or to zero when a == i or b == j.
    """
    qt = [(i, j, x) for i, row in enumerate(q.matrix)
          for j, x in enumerate(row) if x]
    y_cols = []
    for e in monomials(n, d):
        col = {}
        for a, b in product(range(n), repeat=2):
            rest = list(e)
            rest[a] -= 1
            rest[b] -= 1
            if rest[a] < 0 or rest[b] < 0:
                continue
            weight = factorial(d - 2) // prod(map(factorial, rest))
            tail = tuple(i for i, m in enumerate(rest) for _ in range(m))
            for i, j, x in qt:
                if a == i or b == j:
                    continue
                sign = (-1) ** ((a > i) + (b > j))
                word = (min(a, i), min(b, j)) + tail + (max(a, i), max(b, j))
                for orbit, c in c_lam[word].items():
                    col[orbit] = col.get(orbit, 0) + sign * weight * x * c
        y_cols.append(col)
    return y_cols


def young_symmetrizer_oracle(lam, n, q=None):
    """Rank of the symmetrizer; for shape (d,2) also the oracle y-map rank.

    The oracle y-map is f -> c_{(d,2)}(sym(f) tensor q), with q as a
    symmetric 2-tensor in the last two slots, over the monomials of S^d
    (`_oracle_y_columns`). The symmetrizer's rank is dim Sigma^{d,2}, so
    for n >= 2 the y-map's (ker, coker) is checked by `_pieri`.
    """
    lam = tuple(x for x in lam if x)
    c_lam = young_symmetrizer_columns(lam, n)
    r = linalg.rank_sparse(list(c_lam.values()))
    y_rank = None
    if len(lam) == 2 and lam[1] == 2 and lam[0] >= 2:
        if n < 2:
            raise ValueError("the oracle y-map needs n >= 2")
        q = q if q is not None else QuadraticForm.standard(n)
        if q.n != n:
            raise ValueError("variable-count mismatch")
        y_rank = linalg.rank_sparse(_oracle_y_columns(c_lam, n, lam[0], q))
        _pieri("the Young oracle", n, lam[0],
               (sym_dim(n, lam[0]) - y_rank, r - y_rank))
    return r, y_rank
