"""The vertical Young multiplication S^d(M*) -> Sigma^{d,2}(M*).

Sigma^{d,2} is realized inside the polynomials in 2n variables (x, y),
x_1..x_n then y_1..y_n, of bidegree (d,2), as an isotypic component cut
out by a quadratic-Casimir polynomial projector: one integer Casimir
kernel through the gl_2 polarizations (Capelli identity), not a sum of
n^2 operators E_ij E_ji, with denominators cleared once. The map sends
f to the projection of f(x)*q(y). A Young-symmetrizer realization in
V^{tensor (d+2)} is kept as a small-scale independent oracle.
"""

import random
from fractions import Fraction
from itertools import permutations
from math import lcm

from . import linalg, polyspaces
from .polyspaces import Poly, QuadraticForm, monomials
from .weights import pad, weyl_dim


def bipoly_basis(n, d, e):
    """Canonical basis of bidegree (d,e): exponent tuples ex + ey."""
    return [ex + ey for ex in monomials(n, d) for ey in monomials(n, e)]


def _omega_term(k, n):
    """Omega on the monomial x^a y^b (k = a + b), as {exponents: int}.

    Omega = sum_{i,j} E_ij E_ji, E_ij = x_i d/dx_j + y_i d/dy_j. By the
    Capelli identity for the (GL_n, GL_2) pair it is, on bidegree (d, e),
    d^2 + e^2 + (n-1)d + (n-3)e + 2 L R with R = sum_i x_i d/dy_i and
    L = sum_i y_i d/dx_i (one order suffices, as [R, L] = d - e). L R
    moves y_i -> x_i, then x_j -> y_j; i = j gives b_i (a_i + 1) x^a y^b.
    """
    a, b = k[:n], k[n:]
    d, e = sum(a), sum(b)
    out = {k: d * d + e * e + (n - 1) * d + (n - 3) * e
           + 2 * sum(bi * (ai + 1) for ai, bi in zip(a, b))}
    for i in range(n):
        for j in range(n):
            if b[i] and a[j] and i != j:
                m = list(k)
                m[i] += 1
                m[j] -= 1
                m[n + i] -= 1
                m[n + j] += 1
                out[tuple(m)] = 2 * b[i] * a[j]
    return out


def _omega(coeffs, n, shift=0):
    """(Omega - shift) on a coefficient dict {exponents: c}, zeros dropped."""
    out = {}
    for k, c in coeffs.items():
        out[k] = out.get(k, 0) - shift * c
        for m, w in _omega_term(k, n).items():
            out[m] = out.get(m, 0) + w * c
    return {m: c for m, c in out.items() if c}


def casimir_apply(F):
    """Quadratic Casimir of gl_n on a Poly F in (x, y); see _omega_term."""
    return Poly(F.n, F.degree, _omega(F.coeffs, F.n // 2))


def casimir_scalar(lam, n):
    """Casimir eigenvalue on the irreducible of highest weight lam."""
    lam = pad(lam, n)
    return sum(x * (x + n + 1 - 2 * (i + 1)) for i, x in enumerate(lam))


def project_isotypic(F, d=None):
    """Project a bidegree-(d,2) element onto its Sigma^{d,2} component.

    S^d x S^2 has the Pieri constituents (d+2), (d+1, 1) and (d, 2). On
    F with its denominators cleared, one integer step Omega - c_mu removes
    each mu of the first two; c_{(d,2)} - c_mu = 4d+4, 2d is divided once.
    """
    n = F.n // 2
    d = F.degree - 2 if d is None else d
    if F.n % 2 or F.degree != d + 2 or any(
            sum(e[n:]) != 2 for e in F.coeffs):
        raise ValueError(f"not of bidegree ({d}, 2) in x, y")
    if d < 2:
        raise ValueError("shape (d,2) needs d >= 2")
    den = lcm(*(c.denominator for c in F.coeffs.values()))
    G = {k: c.numerator * (den // c.denominator) for k, c in F.coeffs.items()}
    for mu in ((d + 2,), (d + 1, 1)):
        G = _omega(G, n, casimir_scalar(mu, n))
    K = den * (4 * d + 4) * 2 * d
    return Poly(F.n, F.degree, {k: Fraction(c, K) for k, c in G.items()})


def y_dq(f, q):
    """Vertical Young multiplication by q applied to f, in x and y."""
    d = f.degree
    if d < 2:
        raise ValueError("y_dq needs degree >= 2")
    if f.n != q.n:
        raise ValueError("variable-count mismatch")
    qp = q.as_poly()
    prod = {ex + ey: cx * cy for ex, cx in f.coeffs.items()
            for ey, cy in qp.coeffs.items()}
    return project_isotypic(Poly(2 * f.n, d + 2, prod))


def casimir_eigenspace_dims(n, d):
    """Exact eigenspace dimensions of Omega on bidegree (d,2).

    Returns {lam: dim} over the three Pieri constituents. The dims are
    nullities of Omega - c(lam); if they exhaust the space, Omega is
    diagonalizable there and the Casimir projector is exactly the
    isotypic projection.
    """
    basis = bipoly_basis(n, d, 2)
    index = {k: i for i, k in enumerate(basis)}
    omega = [{index[m]: c for m, c in _omega({k: 1}, n).items()}
             for k in basis]
    out = {}
    for lam in [(d + 2,), (d + 1, 1), (d, 2)]:
        lam_p = pad(lam, n)
        if lam_p != tuple(sorted(lam_p, reverse=True)):
            continue
        c = casimir_scalar(lam_p, n)
        shifted = [{**col, j: col.get(j, 0) - c}
                   for j, col in enumerate(omega)]
        out[lam_p] = len(basis) - linalg.rank_sparse(shifted)
    return out


def y_dq_columns(n, d, q=None):
    """Sparse int columns of y_dq : S^d -> bidegree-(d,2) space, each
    K y_dq(f, q) for one K = den (4d+4)(2d), den the lcm of the
    denominators of q's matrix, so rank and kernel are those of y_dq."""
    q = q if q is not None else QuadraticForm.standard(n)
    K = lcm(*(x.denominator for r in q.matrix for x in r)) * 8 * d * (d + 1)
    src = monomials(n, d)
    index = {k: i for i, k in enumerate(bipoly_basis(n, d, 2))}
    cols = [{index[k]: c.numerator * (K // c.denominator)
             for k, c in y_dq(Poly.monomial(n, e), q).coeffs.items()}
            for e in src]
    return cols, src


def y_dq_kernel(n, d, q=None):
    """Exact kernel basis of y_dq on S^d, as Polys."""
    cols, src = y_dq_columns(n, d, q)
    return [Poly(n, d, dict(zip(src, v))) for v in linalg.nullspace(cols)]


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
# ---------------------------------------------------------------------------

def _shape_cells(lam):
    return [(r, c) for r, row in enumerate(lam) for c in range(row)]


def _row_col_groups(lam):
    """Permutations of tensor slots preserving rows (resp. columns)."""
    cells = _shape_cells(lam)
    pos = {cell: i for i, cell in enumerate(cells)}
    k = len(cells)
    rows = {}
    cols = {}
    for (r, c), i in pos.items():
        rows.setdefault(r, []).append(i)
        cols.setdefault(c, []).append(i)

    def group(blocks):
        perms = [tuple(range(k))]
        for block in blocks.values():
            new = []
            for sigma in permutations(block):
                for p in perms:
                    q = list(p)
                    for slot, tgt in zip(block, sigma):
                        q[slot] = p[tgt]
                    new.append(tuple(q))
            perms = new
        return perms

    return group(rows), group(cols)


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


def young_symmetrizer_matrix(lam, n):
    """Matrix of the Young symmetrizer c_lam = a_lam b_lam on V^{tensor k}.

    Columns indexed by tensor basis words; guarded to n^k <= 243.
    """
    lam = tuple(x for x in lam if x)
    k = sum(lam)
    if n ** k > 243:
        raise ValueError("tensor space too large for the oracle")
    row_perms, col_perms = _row_col_groups(lam)
    words = _tensor_words(n, k)
    index = {w: i for i, w in enumerate(words)}
    dim = len(words)
    mat = [[0] * dim for _ in range(dim)]
    signed_cols = [(p, _perm_sign(p)) for p in col_perms]
    for j, w in enumerate(words):
        # b_lam then a_lam acting by permuting tensor slots
        acc = {}
        for p, s in signed_cols:
            w2 = tuple(w[p[i]] for i in range(k))
            acc[w2] = acc.get(w2, 0) + s
        for w2, c in acc.items():
            for p in row_perms:
                w3 = tuple(w2[p[i]] for i in range(k))
                mat[index[w3]][j] += c
    return mat, words


def _tensor_words(n, k):
    words = [()]
    for _ in range(k):
        words = [w + (i,) for w in words for i in range(n)]
    return words


def young_symmetrizer_rank(lam, n):
    """Exact rank of the Young symmetrizer on V^{tensor |lam|}."""
    mat, _ = young_symmetrizer_matrix(lam, n)
    return linalg.rank(mat)


def symmetrizer_ydq_matrix(n, d, q=None):
    """Oracle realization of y_dq: f -> c_{(d,2)}(sym(f) tensor q).

    Returns the matrix S^d -> V^{tensor (d+2)} (columns over the monomial
    basis of S^d) for comparison of ranks and kernels with y_dq_columns.
    """
    q = q if q is not None else QuadraticForm.standard(n)
    lam = (d, 2)
    mat, words = young_symmetrizer_matrix(lam, n)
    index = {w: i for i, w in enumerate(words)}
    k = d + 2
    src = monomials(n, d)
    # q as a symmetric 2-tensor
    qt = {}
    for i in range(n):
        for j in range(n):
            if q.matrix[i][j]:
                qt[(i, j)] = q.matrix[i][j]
    cols = []
    for e in src:
        # symmetrization of the monomial as a tensor: sum over all words
        # with content e, each with coefficient 1
        vec = {}
        for w in _words_with_content(e):
            for (qi, qj), qc in qt.items():
                vec_key = w + (qi, qj)
                vec[vec_key] = vec.get(vec_key, Fraction(0)) + qc
        col = [Fraction(0)] * len(words)
        for w, c in vec.items():
            # apply the symmetrizer column-by-column
            i = index[w]
            for r in range(len(words)):
                if mat[r][i]:
                    col[r] += c * mat[r][i]
        cols.append(col)
    rows = [[cols[j][i] for j in range(len(src))] for i in range(len(words))]
    return rows, src


def _words_with_content(e):
    letters = []
    for i, m in enumerate(e):
        letters.extend([i] * m)
    return set(permutations(letters))


def young_symmetrizer_oracle(lam, n, q=None):
    """Rank of the symmetrizer; for shape (d,2) also the oracle y-map rank."""
    lam = tuple(x for x in lam if x)
    r = young_symmetrizer_rank(lam, n)
    y_rank = None
    if len(lam) == 2 and lam[1] == 2 and lam[0] >= 2:
        rows, _ = symmetrizer_ydq_matrix(n, lam[0], q)
        y_rank = linalg.rank(rows)
    return r, y_rank


# ---------------------------------------------------------------------------
# Plane-harmonicity probe
# ---------------------------------------------------------------------------

def plane_harmonicity_test(f, q=None, trials=20, seed=0):
    """Probe: does f restrict harmonically to random rational 2-planes?

    Necessary condition for membership in ker(y_{d,q}). Returns True iff
    Delta_{q|_E}(f|_E) vanishes exactly on every sampled plane.
    """
    q = q if q is not None else QuadraticForm.standard(f.n)
    n = f.n
    if n == 2:
        rest = polyspaces.laplacian_q(f, q)
        return rest.is_zero()
    rng = random.Random(seed)
    done = 0
    while done < trials:
        e1 = [rng.randint(-5, 5) for _ in range(n)]
        e2 = [rng.randint(-5, 5) for _ in range(n)]
        if linalg.rank([e1, e2]) < 2:
            continue
        try:
            qe = polyspaces.restricted_form(q, e1, e2)
        except ValueError:
            continue  # degenerate restriction; resample
        fe = polyspaces.restrict_to_plane(f, e1, e2)
        if not polyspaces.laplacian_q(fe, qe).is_zero():
            return False
        done += 1
    return True
