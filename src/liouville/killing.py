"""Conformal Killing fields on flat C^n and the so(n+2) identification.

The conformal Killing operator is the traceless symmetrized gradient
(with the 2/n trace normalization), on degree-d fields one polynomial of
bidegree (d - 1, 2) in polyspaces' (x, y) ring, on ints as den n CK, den
the lcm of the denominators of q: its sparse columns are all ints, one
multiple of CK, and its kernel per degree is their exact nullspace. Each
term is keyed by one int, the ring's packed key (polyspaces._packing),
built by adding precomputed weights to the key of x^e; the keys sort in
bipoly_basis's order, so the columns need no row index and the echelon
meets the rows in grlex order. Only ck_operator keys its output back to
exponents. The degree-(0,1,2) kernel carries the usual conformal
algebra: two exact ranks over the graph {(x, phi x)} of phi, the map of
the named basis to its images in so(n+2) (q split-extended to C^{n+2}),
show from the brackets of P_1..P_n and K_1 that it is closed, and one
rank that phi is onto. Both sides touch only nonzero terms. Inside this
module a field is its terms {(component, exponents): coeff}: the named
generators are built and returned as terms, and the bracket and CK take
terms and the bracket returns them; `PolyVectorField` is only the form
in which ck_kernel returns fields and ck_operator takes one. Each image
is built as its nonzero entries {(i, j): x} and commutators are taken on
those. One linalg.solve of brackets over the basis reads structure
constants, or names the pair that fails closure. Values are ints
wherever integral.
"""

from fractions import Fraction
from itertools import combinations
from operator import add, mul

from . import linalg
from .linalg import _exact
from .polyspaces import Poly, QuadraticForm, _packing, bipoly_basis, monomials


class PolyVectorField:
    """n polynomial components, each homogeneous of the same degree: the
    form in which ck_kernel returns fields and ck_operator takes one."""

    def __init__(self, components):
        comps = list(components)
        self.n = len(comps)
        degs = {c.degree for c in comps if not c.is_zero()}
        if len(degs) > 1:
            raise ValueError("components must share one degree")
        self.degree = degs.pop() if degs else 0
        self.components = comps


def _ck_form(n, q, d):
    """(den, w, rows, qy) for CK on fields of degree <= d: w the weights of
    polyspaces._packing for bidegree (d - 1, 2), rows[c] the pairs
    (w(y_j), 2 n (den q)_cj) over the nonzero entries of q's row c, and qy
    den q(y) on packed keys; den and the ints from integer_entries."""
    if q.n != n:
        raise ValueError("variable-count mismatch")
    den, entries = q.integer_entries
    w = _packing(n, max(d - 1, 0), 2)
    rows, qy = [[] for _ in range(n)], {}
    for k, l, a in entries:
        rows[k].append((w[n + l], 2 * n * a))
        if k != l:
            rows[l].append((w[n + k], 2 * n * a))
        qy[w[n + k] + w[n + l]] = (2 - (k == l)) * a
    return den, w, rows, qy


def _ck_term(c, e, key, form):
    """den n CK on the unit field x^e d/dx_c, as {packed key: int}, with
    key the packed key of x^e and form = _ck_form(n, q, d).

    CK(xi) = 2 L(xi_flat) - (2/n) div(xi) q(y), with L = sum_i y_i d/dx_i
    the polarization and xi_flat = sum_j (q xi)_j y_j; here
    2 den n xi_flat = x^e sum_j 2 n (den q)_cj y_j, and L moves one x_i to
    y_i, which adds w(y_i) - w(x_i) to a key. div(xi) = e_c x^(e - 1_c)
    takes w(x_c) off, and q(y)'s packed keys are added to that.
    """
    _, kw, rows, qy = form
    n, out = len(e), {}
    for i, b in enumerate(e):
        if b:
            shift = key - kw[i] + kw[n + i]
            for y, a in rows[c]:
                k = shift + y
                out[k] = out.get(k, 0) + b * a
    if e[c]:
        key -= kw[c]
        w = -2 * e[c]
        for y, a in qy.items():
            k = key + y
            out[k] = out.get(k, 0) + w * a
    return {k: v for k, v in out.items() if v}


def ck_operator(xi, q=None):
    """The conformal Killing operator on xi, as one polynomial in (x, y).

    CK(xi) = sum_ij T_ij y_i y_j, T the traceless symmetrized gradient of
    xi with its index lowered by q, is of bidegree (d - 1, 2) for xi of
    degree d, and zero iff xi is conformal Killing. Summed as den n CK
    (on ints when xi is integral) on packed keys, divided once and keyed
    back to exponents through bipoly_basis.
    """
    n, d = xi.n, xi.degree
    form = _ck_form(n, q if q is not None else QuadraticForm.standard(n), d)
    den_n, w = form[0] * n, form[1]
    out = _ck_sum(_terms(xi), form)
    if not out:  # also every constant field, with no basis to key back to
        return Poly(2 * n, d + 1)
    exps = {sum(map(mul, v, w)): v for v in bipoly_basis(n, d - 1, 2)}
    return Poly(2 * n, d + 1, {exps[k]: Fraction(v, den_n)
                               for k, v in out.items()})


def _terms(field):
    """A PolyVectorField's terms {(component, exponents): coeff}."""
    return {(c, e): v for c, comp in enumerate(field.components)
            for e, v in comp.coeffs.items()}


def _ck_sum(terms, form):
    """den n CK of the field of terms {(component, exponents): coeff}, as
    its nonzero terms on packed keys, for form = _ck_form(n, q, d) with d
    at least the field's degree: one form serves every field of a check."""
    w, out = form[1], {}
    for (c, e), a in terms.items():
        for k, v in _ck_term(c, e, sum(map(mul, e, w)), form).items():
            out[k] = out.get(k, 0) + a * v
    return {k: v for k, v in out.items() if v}


def ck_columns(n, d, q=None):
    """Sparse int columns of the conformal Killing operator on degree-d
    fields: column (c, e) is den n CK(x^e d/dx_c) (see _ck_form), and its
    rows are the packed keys of polyspaces._packing, whose order is that
    of the bidegree-(d - 1, 2) basis bipoly_basis.
    """
    form = _ck_form(n, q if q is not None else QuadraticForm.standard(n), d)
    src = monomials(n, d)
    keys = [sum(map(mul, e, form[1])) for e in src]
    return [_ck_term(c, e, key, form) for c in range(n)
            for e, key in zip(src, keys)], src


def ck_kernel(n, d, q=None):
    """Basis of degree-d homogeneous conformal Killing fields. Raises
    ArithmeticError unless it has `liouville_dim(n, d)` fields."""
    if n < 2 or d < 0:
        raise ValueError("need n >= 2, d >= 0")
    cols, src = ck_columns(n, d, q)
    basis = []
    for v in linalg.nullspace(cols):
        comps = [{} for _ in range(n)]
        for j, x in v.items():
            comps[j // len(src)][src[j % len(src)]] = x
        basis.append(PolyVectorField([Poly(n, d, c) for c in comps]))
    if len(basis) != (dim := liouville_dim(n, d)):
        raise ArithmeticError(f"the degree-{d} kernel has dimension "
                              f"{len(basis)}, not {dim}")
    return basis


def bracket(xi, eta):
    """Lie bracket of vector fields given as their terms
    {(component, exponents): coeff}, as its nonzero terms, ints where
    integral. Raises ValueError on fields in different numbers of
    variables.

    [xi, eta]_m = sum_j xi_j d_j eta_m - eta_j d_j xi_m: each term of
    eta_m with e_j > 0 meets each term of xi_j, and the same the other way
    round, straight into one dict.
    """
    if len({len(e) for _, e in (*xi, *eta)}) > 1:
        raise ValueError("variable-count mismatch")
    acc = {}
    for f, g, sign in ((xi, eta, 1), (eta, xi, -1)):
        by_component = {}
        for (j, e1), c1 in f.items():
            by_component.setdefault(j, []).append((e1, c1))
        for (m, e), c in g.items():
            for j, f_j in by_component.items():
                if e[j]:
                    de = e[:j] + (e[j] - 1,) + e[j + 1:]
                    w = sign * e[j] * c
                    for e1, c1 in f_j:
                        k = m, tuple(map(add, e1, de))
                        acc[k] = acc.get(k, 0) + w * c1
    return {k: _exact(v) for k, v in acc.items() if v}


# ---------------------------------------------------------------------------
# Named conformal basis and the so(n+2) comparison
# ---------------------------------------------------------------------------

def named_generators(n, d):
    """The named conformal generators of degree d (standard q), as pairs
    (name, terms {(component, exponents): coeff}): the translations P_i at
    0, the rotations R_ij and dilation D at 1, the special conformal
    K_i = 2 x_i x_m in component m != i and x_i^2 - sum_{k != i} x_k^2 in
    component i at 2, none above. Unchecked: `_check_conformal` is their
    check."""
    if d == 0:
        return [(f"P{i+1}", {(i, (0,) * n): 1}) for i in range(n)]
    if d > 2:
        return []
    e = [tuple(int(k == i) for k in range(n)) for i in range(n)]
    if d == 1:
        return [(f"R{i+1}{j+1}", {(j, e[i]): 1, (i, e[j]): -1})
                for i, j in combinations(range(n), 2)] + [
            ("D", {(k, e[k]): 1 for k in range(n)})]
    out = []
    for i in range(n):
        terms = {(m, tuple(map(add, e[i], e[m]))): 2 - (m == i)
                 for m in range(n)}
        terms.update(((i, tuple(map(add, e[k], e[k]))), -1)
                     for k in range(n) if k != i)
        out.append((f"K{i+1}", terms))
    return out


def named_conformal_basis(n):
    """Translations, rotations, dilation, special conformal (standard q)."""
    return [g for d in range(3) for g in named_generators(n, d)]


def structure_constants(named_basis):
    """Exact structure constants {(a, b): {c: coeff}}, over basis indices
    a < b, of the conformal basis under the bracket."""
    names, fields = zip(*named_basis)
    return _solve(fields, {(a, b): bracket(fields[a], fields[b])
                           for a, b in combinations(range(len(fields)), 2)},
                  names)


def _solve(basis, products, names):
    """Coordinates {(a, b): {c: coeff}} of each product {(a, b): vector}
    over the sparse basis vectors, exactly, by one linalg.solve with each
    key that occurs numbered as a row; a product outside the span raises
    ArithmeticError naming its pair."""
    index = {}
    cols = [{index.setdefault(r, len(index)): x for r, x in v.items()}
            for v in [*basis, *products.values()]]
    coords = linalg.solve(cols[:len(basis)], cols[len(basis):])
    if len(coords) < len(products):
        a, b = list(products)[len(coords)]
        raise ArithmeticError(
            f"[{names[a]}, {names[b]}] left the span of the basis")
    return dict(zip(products, coords))


def conformal_to_so_matrices(n):
    """The explicit images of the named conformal generators in so(n+2).

    P_i -> X_{u,i}, R_ij -> X_{i,j}, D -> -X_{u,v}, K_i -> 2 X_{v,i}, in
    the basis u, e_1..e_n, v of C^{n+2} (indices 0..n+1) with <u, v> = 1
    and <e_i, e_i> = 1. X_ab: w -> e_a <e_b, w> - e_b <e_a, w> has the
    two nonzero entries (a, b') = 1 and (b, a') = -1, where u' = v,
    v' = u and e_i' = e_i; each image is given as {(i, j): x}.
    """
    u, v = 0, n + 1
    dual = lambda a: {u: v, v: u}.get(a, a)
    x_ab = lambda a, b, c=1: {(a, dual(b)): c, (b, dual(a)): -c}
    out = [(f"P{i}", x_ab(u, i)) for i in range(1, n + 1)]
    out += [(f"R{i}{j}", x_ab(i, j))
            for i in range(1, n + 1) for j in range(i + 1, n + 1)]
    out.append(("D", x_ab(u, v, -1)))
    out += [(f"K{i}", x_ab(v, i, 2)) for i in range(1, n + 1)]
    return out


def _comm(a, b):
    """Commutator ab - ba of matrices given as nonzero entries {(i, j): x}."""
    out = {}
    for x, y, sign in ((a, b, 1), (b, a, -1)):
        rows = {}
        for (k, j), v in y.items():
            rows.setdefault(k, []).append((j, v))
        for (i, k), u in x.items():
            for j, v in rows.get(k, ()):
                out[i, j] = out.get((i, j), 0) + sign * u * v
    return {k: v for k, v in out.items() if v}


def so_structure_constants(n):
    """Structure constants of the so(n+2) images of the conformal basis."""
    names, mats = zip(*conformal_to_so_matrices(n))
    return _solve(mats, {(a, b): _comm(mats[a], mats[b])
                         for a, b in combinations(range(len(mats)), 2)}, names)


def check_jacobi(constants, dim):
    """Exact Jacobi identity on antisymmetrized structure constants,
    summed as they are, ints or Fractions; it visits only the nonzero
    brackets, a missing or empty one being zero."""
    c = [[()] * dim for _ in range(dim)]
    for (a, b), v in constants.items():
        c[a][b] = [(k, x) for k, x in v.items() if x]
        c[b][a] = [(k, -x) for k, x in c[a][b]]

    for a, b, cc in combinations(range(dim), 3):
        acc = {}
        for x, y, z in ((a, b, cc), (b, cc, a), (cc, a, b)):
            for m, v in c[x][y]:
                for t, w in c[m][z]:
                    acc[t] = acc.get(t, 0) + v * w
        if any(acc.values()):
            return False, (a, b, cc)
    return True, None


def _check_conformal(n, named_fields):
    """Raise ArithmeticError unless each named field on C^n (terms) is
    nonzero and conformal Killing for the standard form."""
    form = _ck_form(n, QuadraticForm.standard(n), max(
        (sum(e) for _, terms in named_fields for _, e in terms), default=0))
    for name, terms in named_fields:
        if not terms or _ck_sum(terms, form):
            raise ArithmeticError(f"{name} is not conformal Killing, or is 0")


def _generators(names):
    """Indices of P_1..P_n and K_1, which generate so(n+2)."""
    return [a for a, g in enumerate(names) if g[0] == "P" or g == "K1"]


def liouville_dim(n, d):
    """Dimension of the degree-d conformal Killing fields by Liouville's
    theorem: n, n(n-1)/2 + 1, n, 0 for d = 0, 1, 2, >= 3 at n >= 3 (the
    translations, rotations with the dilation, special conformal maps),
    2 in every degree at n = 2, and 0 below degree 0, as sym_dim."""
    if d < 0:
        return 0
    return 2 if n == 2 else (n, n * (n - 1) // 2 + 1, n, 0)[min(d, 3)]


def so_np2_isomorphism(n):
    """Certify that the named conformal basis spans a copy of so(n+2).

    phi is a homomorphism exactly when the span G of the graph vectors
    (field terms, image entries; their keys never collide) is closed under
    the bracket of Vect + gl(n+2), where N(G) = {x : [x, G] in G} is a
    subalgebra by Jacobi. S = {P_1..P_n, K_1} generates so(n+2), so two
    ranks decide it. The graph with the brackets of S with every generator
    has rank dim: Lie(S) lies in N(G). The graph vectors of S, [P_i, K_1],
    [K_1, [P_i, K_1]] (the other K's) and [[P_i, K_1], [P_j, K_1]] (the
    R_ij), 2 <= i < j, are dim vectors of Lie(S) in G; of rank dim, they
    span G, so G lies in N(G) and is closed. C(dim, 2) - C(dim - n - 1, 2)
    + (n - 1) + C(n - 1, 2) brackets in all. Images of rank dim so(n+2),
    simple for n >= 3, and nonzero fields make G isomorphic to both sides;
    the report's "jacobi" and "structure_constants_match" rest on this.
    Raises ArithmeticError naming the offending generator or pair.
    """
    if n < 3:
        raise ValueError("the identification is stated for n >= 3")
    basis = named_conformal_basis(n)
    _check_conformal(n, basis)
    names, fields = zip(*basis)
    images = [m for _, m in conformal_to_so_matrices(n)]
    dim, rank = (n + 2) * (n + 1) // 2, linalg.rank_sparse(images)
    if not len(basis) == rank == dim:
        raise ArithmeticError(f"the so({n + 2}) images of {len(basis)} "
                              f"generators have rank {rank}, not {dim}")
    graph = list(zip(fields, images, strict=True))
    lie = lambda x, y: (bracket(x[0], y[0]), _comm(x[1], y[1]))
    gens, k1, index = _generators(names), names.index("K1"), {}
    brackets = {(a, b): lie(graph[a], graph[b]) for a, b in
                combinations(range(dim), 2) if a in gens or b in gens}
    span = lambda vs: linalg.rank_sparse([
        {index.setdefault(k, len(index)): x for k, x in (t | m).items()}
        for t, m in vs])
    if span(graph + [*brackets.values()]) != dim:
        _solve([t | m for t, m in graph],  # raises, naming a pair outside G
               {k: t | m for k, (t, m) in brackets.items()}, names)
    pk = [brackets[p, k1] for p in gens if p != k1]  # [P_i, K_1]
    w = pk[1:]  # i >= 2
    if span([graph[s] for s in gens] + pk + [lie(graph[k1], x) for x in w]
            + [lie(x, y) for x, y in combinations(w, 2)]) != dim:
        raise ArithmeticError("P and K do not generate the graph")
    return {"n": n, "dimension": dim, "generators": list(names),
            "jacobi": "exact", "structure_constants_match": True}
