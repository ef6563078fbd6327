"""The vertical Young multiplication S^d(M*) -> Sigma^{d,2}(M*).

Sigma^{d,2} is realized inside the polynomials in 2n variables (x, y),
x_1..x_n then y_1..y_n, of bidegree (d,2), as an isotypic component cut
out by a quadratic-Casimir polynomial projector. The gl_n Casimir is
applied through the two gl_2 polarizations x -> y and y -> x (Capelli
identity), not as a sum of n^2 operators E_ij E_ji. The map itself sends
f to the projection of f(x)*q(y). A Young-symmetrizer realization in
V^{tensor (d+2)} is kept as a small-scale independent oracle.
"""

import random
from fractions import Fraction
from itertools import permutations

from . import linalg, polyspaces
from .polyspaces import Poly, QuadraticForm, monomials
from .weights import pad, weyl_dim


def bipoly_basis(n, d, e):
    """Canonical basis of bidegree (d,e): exponent tuples ex + ey."""
    return [ex + ey for ex in monomials(n, d) for ey in monomials(n, e)]


def _polarize(F, a, b):
    """Polarization sum_i z^a_i d/dz^b_i, where z^0 = x and z^1 = y."""
    n = F.n // 2
    out = {}
    for e, c in F.coeffs.items():
        for i in range(n):
            k = e[b * n + i]
            if k:
                e2 = list(e)
                e2[b * n + i] -= 1
                e2[a * n + i] += 1
                key = tuple(e2)
                out[key] = out.get(key, 0) + c * k
    return Poly(F.n, F.degree, out)


def casimir_apply(F):
    """Quadratic Casimir Omega = sum_{i,j} E_ij E_ji of gl_n on (x, y).

    Here E_ij = x_i d/dx_j + y_i d/dy_j. By the Capelli identity for the
    (GL_n, GL_2) pair, Omega acts on a term of bidegree (d, e) as
    d^2 + e^2 + (n-1)d + (n-3)e + 2 L R, with the polarizations
    R = sum_i x_i d/dy_i and L = sum_i y_i d/dx_i; the symmetric form
    L R + R L needs only one order because [R, L] = d - e.
    """
    n = F.n // 2
    out = {k: 2 * c for k, c in
           _polarize(_polarize(F, 0, 1), 1, 0).coeffs.items()}
    for k, c in F.coeffs.items():
        d, e = sum(k[:n]), sum(k[n:])
        out[k] = out.get(k, 0) + (d * d + e * e + (n - 1) * d
                                  + (n - 3) * e) * c
    return Poly(F.n, F.degree, out)


def casimir_scalar(lam, n):
    """Casimir eigenvalue on the irreducible of highest weight lam."""
    lam = pad(lam, n)
    return sum(x * (x + n + 1 - 2 * (i + 1)) for i, x in enumerate(lam))


def project_isotypic(F, d=None):
    """Project a bidegree-(d,2) element onto its Sigma^{d,2} component.

    S^d x S^2 has the Pieri constituents (d+2), (d+1, 1) and (d, 2); one
    step (Omega - c_mu) / (c_{(d,2)} - c_mu) removes each mu of the first
    two. Their scalars differ from c_{(d,2)} by 4d+4 and 2d, never 0.
    """
    n = F.n // 2
    d = F.degree - 2 if d is None else d
    if F.n % 2 or F.degree != d + 2 or any(
            sum(e[n:]) != 2 for e in F.coeffs):
        raise ValueError(f"not of bidegree ({d}, 2) in x, y")
    if d < 2:
        raise ValueError("shape (d,2) needs d >= 2")
    c_target = casimir_scalar((d, 2), n)
    for mu in ((d + 2,), (d + 1, 1)):
        c_mu = casimir_scalar(mu, n)
        F = (casimir_apply(F) - F.scale(c_mu)).scale(
            Fraction(1, c_target - c_mu))
    return F


def y_dq(f, q):
    """Vertical Young multiplication by q applied to f, in x and y."""
    d = f.degree
    if d < 2:
        raise ValueError("y_dq needs degree >= 2")
    if f.n != q.n:
        raise ValueError("variable-count mismatch")
    n = f.n
    qp = q.as_poly()
    prod = {ex + ey: cx * cy for ex, cx in f.coeffs.items()
            for ey, cy in qp.coeffs.items()}
    return project_isotypic(Poly(2 * n, d + 2, prod))


def casimir_eigenspace_dims(n, d):
    """Exact eigenspace dimensions of Omega on bidegree (d,2).

    Returns {lam: dim} over the three Pieri constituents. The dims are
    nullities of Omega - c(lam); if they exhaust the space, Omega is
    diagonalizable there and the Casimir projector is exactly the
    isotypic projection.
    """
    basis = bipoly_basis(n, d, 2)
    index = {k: i for i, k in enumerate(basis)}
    omega_cols = []
    for k in basis:
        img = casimir_apply(Poly(2 * n, d + 2, {k: 1}))
        omega_cols.append({index[kk]: c for kk, c in img.coeffs.items()})
    out = {}
    shapes = [(d + 2,), (d + 1, 1), (d, 2)]
    for lam in shapes:
        lam_p = pad(lam, n)
        if lam_p != tuple(sorted(lam_p, reverse=True)):
            continue
        c = casimir_scalar(lam_p, n)
        shifted = []
        for j, col in enumerate(omega_cols):
            col2 = dict(col)
            col2[j] = col2.get(j, Fraction(0)) - c
            shifted.append(col2)
        out[lam_p] = len(basis) - linalg.rank_sparse(shifted)
    return out


def y_dq_columns(n, d, q=None):
    """Sparse columns of y_dq : S^d -> bidegree-(d,2) space."""
    q = q if q is not None else QuadraticForm.standard(n)
    src = monomials(n, d)
    index = {k: i for i, k in enumerate(bipoly_basis(n, d, 2))}
    cols = []
    for e in src:
        img = y_dq(Poly.monomial(n, e), q)
        cols.append({index[k]: c for k, c in img.coeffs.items()})
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
