"""The vertical Young multiplication S^d(M*) -> Sigma^{d,2}(M*).

Sigma^{d,2} is realized in the polynomials in 2n variables (x, y),
x_1..x_n then y_1..y_n, as ker R in bidegree (d,2), R = sum_i x_i d/dy_i
((GL_n, GL_2) Howe duality), cut out by the sl_2 extremal projector in R
and L = sum_i y_i d/dx_i alone. The map sends f to the projection of
f(x)*q(y). With B(x, y) = sum a_ij x_i y_j, R kills f(x), R q(y) = 2B and
R B = q(x), while the derivation L has L B = q(y) and L q(x) = 2B; put
into the projector these give the closed form

    d(d+1) y_dq(f, q) = d(d-1) f q(y) - 2(d-1) (L f) B + (L^2 f) q(x),

which `y_dq` evaluates in one integer pass. The generic projector,
`project_isotypic`, is its oracle. A Young-symmetrizer realization in
V^{tensor (d+2)} is kept as a small-scale independent oracle of the ranks.
"""

from fractions import Fraction
from functools import cache
from itertools import permutations, product
from math import factorial, lcm, prod

from . import linalg
from .polyspaces import Poly, QuadraticForm, monomials
from .weights import pad, weyl_dim


def bipoly_basis(n, d, e):
    """Canonical basis of bidegree (d,e): exponent tuples ex + ey."""
    ys = monomials(n, e)
    return [ex + ey for ex in monomials(n, d) for ey in ys]


def _polarize(G, n, src, dst):
    """sum_i z_{dst+i} d/dz_{src+i} on {exponents: c}, x at offset 0 and
    y at offset n; only the nonzero exponents of the source block are
    visited. R = _polarize(G, n, n, 0), L = _polarize(G, n, 0, n)."""
    out = {}
    for k, c in G.items():
        for i, b in enumerate(k[src:src + n]):
            if b:
                m = list(k)
                m[src + i] = b - 1
                m[dst + i] += 1
                m = tuple(m)
                out[m] = out.get(m, 0) + b * c
    return out


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
    as R^3 kills y-degree 2: 1 - L R / d + L^2 R^2 / (2d(d+1)), run in
    integers as 2d(d+1) G + L(L R^2 G - 2(d+1) R G) and divided once.
    On F = f(x) q(y) it is y_dq(f, q), which runs the closed form
    instead: this generic projector is the oracle of that closed form.
    """
    n, d = F.n // 2, F.degree - 2
    if F.n % 2 or any(sum(e[n:]) != 2 for e in F.coeffs):
        raise ValueError(f"not of bidegree ({d}, 2) in x, y")
    if d < 2:
        raise ValueError("shape (d,2) needs d >= 2")
    den = lcm(*(c.denominator for c in F.coeffs.values()))
    G = {k: c.numerator * (den // c.denominator) for k, c in F.coeffs.items()}
    RG = _polarize(G, n, n, 0)
    T = _polarize(_polarize(RG, n, n, 0), n, 0, n)
    for k, c in RG.items():
        T[k] = T.get(k, 0) - 2 * (d + 1) * c
    out = {k: 2 * d * (d + 1) * c for k, c in G.items()}
    for k, c in _polarize(T, n, 0, n).items():
        out[k] = out.get(k, 0) + c
    K = den * 2 * d * (d + 1)
    return Poly(F.n, F.degree,
                {k: Fraction(c, K) for k, c in out.items() if c})


@cache
def _y_pairs(n):
    """y-exponent tuples of y_i y_j, indexed [i][j]: one table per n."""
    return tuple(tuple(tuple((k == i) + (k == j) for k in range(n))
                       for j in range(n)) for i in range(n))


def y_dq(f, q):
    """Vertical Young multiplication by q applied to f, in x and y.

    The projection of f(x) q(y), evaluated from the closed form
    d(d+1) y = d(d-1) f q(y) - 2(d-1) (L f) B + (L^2 f) q(x) of the module
    docstring. q's integer entries den_q a_kl, k <= l, come once per form
    (`QuadraticForm.integer_entries`); with f's denominators cleared too,
    each term c x^e of f, each entry and each unordered pair i <= j of
    f's support add into one int dict. A symmetric term with k != l or
    i != j stands for two ordered ones and counts twice, and each of B's
    off-diagonal entries gives its two terms x_k y_l and x_l y_k. The sum
    is divided once by K = den_f den_q d(d+1): a coefficient is an int
    when K divides it and a Fraction otherwise.
    """
    n, d = f.n, f.degree
    if d < 2:
        raise ValueError("y_dq needs degree >= 2")
    if n != q.n:
        raise ValueError("variable-count mismatch")
    den_f = lcm(*(c.denominator for c in f.coeffs.values()))
    den_q, entries = q.integer_entries
    yy = _y_pairs(n)
    fq, lb = d * (d - 1), -2 * (d - 1)
    out = {}
    for e, c in f.coeffs.items():
        c = c.numerator * (den_f // c.denominator)
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
    K = den_f * den_q * d * (d + 1)
    y = Poly(2 * n, d + 2)
    for key, c in out.items():
        if c:
            v, r = divmod(c, K)
            y.coeffs[key] = Fraction(c, K) if r else v
    return y


def y_dq_columns(n, d, q=None):
    """Sparse int columns of y_dq : S^d -> bidegree-(d,2) space, each
    y_dq(K x^e, q) for one K = den (4d+4)(2d), den the lcm of the
    denominators of q's matrix: every coefficient is then already an
    int, and rank and kernel are those of y_dq."""
    q = q if q is not None else QuadraticForm.standard(n)
    K = q.integer_entries[0] * 8 * d * (d + 1)
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


def kernel_cokernel_dims(n, d, q=None):
    """(ker, coker) of y_dq via exact rank; coker relative to Sigma^{d,2}."""
    if d < 2 or n < 2:
        raise ValueError("need d >= 2 and n >= 2")
    cols, src = y_dq_columns(n, d, q)
    r = linalg.rank_sparse(cols)
    target = weyl_dim(pad((d, 2), n))
    return len(src) - r, target - r


# ---------------------------------------------------------------------------
# Young-symmetrizer oracle (desk-scale tensor realization)
#
# c_lam = a_lam b_lam acts on tensor words by permuting slots. Since
# (a_lam v)[w] = |Stab_R(w)| * (sum of v over the row orbit R.w), every
# row of c_lam is constant on a row orbit: rows are keyed by orbit and
# only b_lam's signed column permutations are applied. The sparse c_lam
# columns are built once per call, applied directly to sym(x^e) tensor q,
# and both ranks are taken with linalg.rank_sparse.
# ---------------------------------------------------------------------------

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


def _stabilizer_order(orbit):
    """|Stab_R(w)| for w in the row orbit: prod of m! over repeated letters."""
    return prod(factorial(row.count(a)) for row in orbit for a in set(row))


def young_symmetrizer_columns(lam, n):
    """The Young symmetrizer c_lam = a_lam b_lam on V^{tensor k}.

    Returns {word: column}, one sparse column per tensor basis word. A
    column is keyed by row orbit, the sorted letters of each tableau row,
    and holds |Stab_R| times the signed count of b_lam's images of the
    word in that orbit. Guarded to n^k <= 243.
    """
    lam = tuple(x for x in lam if x)
    k = sum(lam)
    if n ** k > 243:
        raise ValueError("tensor space too large for the oracle")
    rows, cols = _tableau_slots(lam)
    signed = [(p, _perm_sign(p)) for p in _block_perms(cols, k)]
    out = {}
    for w in product(range(n), repeat=k):
        acc = {}
        for p, s in signed:
            orbit = tuple(tuple(sorted(w[p[i]] for i in row)) for row in rows)
            acc[orbit] = acc.get(orbit, 0) + s
        out[w] = {orbit: c * _stabilizer_order(orbit)
                  for orbit, c in acc.items() if c}
    return out


def _words_with_content(e):
    letters = []
    for i, m in enumerate(e):
        letters.extend([i] * m)
    return set(permutations(letters))


def young_symmetrizer_oracle(lam, n, q=None):
    """Rank of the symmetrizer; for shape (d,2) also the oracle y-map rank.

    The oracle y-map is f -> c_{(d,2)}(sym(f) tensor q), with q as a
    symmetric 2-tensor in the last two slots, over the monomials of S^d.
    """
    lam = tuple(x for x in lam if x)
    c_lam = young_symmetrizer_columns(lam, n)
    r = linalg.rank_sparse(list(c_lam.values()))
    y_rank = None
    if len(lam) == 2 and lam[1] == 2 and lam[0] >= 2:
        q = q if q is not None else QuadraticForm.standard(n)
        qt = [((i, j), x) for i, row in enumerate(q.matrix)
              for j, x in enumerate(row) if x]
        y_cols = []
        for e in monomials(n, lam[0]):
            col = {}
            for w in _words_with_content(e):
                for ij, x in qt:
                    for orbit, c in c_lam[w + ij].items():
                        col[orbit] = col.get(orbit, 0) + x * c
            y_cols.append(col)
        y_rank = linalg.rank_sparse(y_cols)
    return r, y_rank

