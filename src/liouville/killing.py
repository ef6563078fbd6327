"""Conformal Killing fields on flat C^n and the so(n+2) identification.

The conformal Killing operator is the traceless symmetrized gradient
(with the 2/n trace normalization), on degree-d fields one polynomial of
bidegree (d - 1, 2) in young_map's (x, y) ring, built with young_map's
polarization L; its kernel per degree is computed as an exact nullspace.
The degree-(0,1,2) kernel carries the usual conformal algebra, which is
matched generator-by-generator against antisymmetric endomorphisms of
C^{n+2} with a split extension of q.
Both sides touch only nonzero terms: the bracket is accumulated term by
term into one dict per component, each so(n+2) image is built as its
nonzero entries {(i, j): x} and commutators are taken on those, and each
entry of a sparse kernel vector becomes one coefficient of a field.
"""

from fractions import Fraction
from operator import add

from . import linalg
from .polyspaces import Poly, QuadraticForm, monomials
from .young_map import _polarize, bipoly_basis


class PolyVectorField:
    """n polynomial components, each homogeneous of the same degree."""

    def __init__(self, components):
        comps = list(components)
        self.n = len(comps)
        degs = {c.degree for c in comps if not c.is_zero()}
        if len(degs) > 1:
            raise ValueError("components must share one degree")
        self.degree = degs.pop() if degs else 0
        self.components = comps

    def is_zero(self):
        return all(c.is_zero() for c in self.components)


def _ck_term(c, e, q, qy):
    """CK on the unit field x^e d/dx_c, as {(x, y) exponents: coeff}.

    CK(xi) = 2 L(xi_flat) - (2/n) div(xi) q(y), with L = sum_i y_i d/dx_i
    the polarization of young_map and xi_flat = sum_j (q xi)_j y_j; here
    2 xi_flat = x^e sum_j 2 q_jc y_j and div(xi) = e_c x^(e - 1_c). `qy`
    is q(y) as {y exponents: coeff}.
    """
    n = q.n
    flat = {e + (0,) * j + (1,) + (0,) * (n - 1 - j): 2 * qjc
            for j, qjc in enumerate(q.matrix[c]) if qjc}
    out = _polarize(flat, n, 0, n)
    if e[c]:
        ex = e[:c] + (e[c] - 1,) + e[c + 1:]
        w = Fraction(-2 * e[c], n)
        for ey, qc in qy.items():
            k = ex + ey
            out[k] = out.get(k, 0) + w * qc
    return {k: v for k, v in out.items() if v}


def ck_operator(xi, q=None):
    """The conformal Killing operator on xi, as one polynomial in (x, y).

    CK(xi) = sum_ij T_ij y_i y_j, T the traceless symmetrized gradient of
    xi with its index lowered by q, is of bidegree (d - 1, 2) for xi of
    degree d, and zero iff xi is conformal Killing.
    """
    n = xi.n
    q = q if q is not None else QuadraticForm.standard(n)
    qy = q.as_poly().coeffs
    out = {}
    for c, comp in enumerate(xi.components):
        for e, a in comp.coeffs.items():
            for k, v in _ck_term(c, e, q, qy).items():
                out[k] = out.get(k, 0) + a * v
    return Poly(2 * n, xi.degree + 1, out)


def ck_columns(n, d, q=None):
    """Sparse columns of the conformal Killing operator on degree-d fields.

    Columns run over (component, source monomial); rows over the
    bidegree-(d - 1, 2) basis of young_map.bipoly_basis.
    """
    q = q if q is not None else QuadraticForm.standard(n)
    qy = q.as_poly().coeffs
    src = monomials(n, d)
    index = {k: i for i, k in enumerate(bipoly_basis(n, max(d - 1, 0), 2))}
    cols = [{index[k]: v for k, v in _ck_term(c, e, q, qy).items()}
            for c in range(n) for e in src]
    return cols, src


def ck_kernel(n, d, q=None):
    """Basis of degree-d homogeneous conformal Killing fields."""
    if n < 2 or d < 0:
        raise ValueError("need n >= 2, d >= 0")
    cols, src = ck_columns(n, d, q)
    basis = []
    for v in linalg.nullspace(cols):
        comps = [{} for _ in range(n)]
        for j, x in v.items():
            comps[j // len(src)][src[j % len(src)]] = x
        basis.append(PolyVectorField([Poly(n, d, c) for c in comps]))
    return basis


def bracket(xi, eta):
    """Lie bracket of vector fields, accumulated term by term.

    [xi, eta]_m = sum_j xi_j d_j eta_m - eta_j d_j xi_m: each term of
    eta_m with e_j > 0 meets each term of xi_j, and the same the other
    way round, into one dict per component.
    """
    n = xi.n
    if eta.n != n:
        raise ValueError("variable-count mismatch")
    deg = max(xi.degree + eta.degree - 1, 0)
    comps = []
    for m in range(n):
        acc = {}
        for f, g, sign in ((xi, eta, 1), (eta, xi, -1)):
            for e, c in g.components[m].coeffs.items():
                for j, ej in enumerate(e):
                    if not ej:
                        continue
                    de = e[:j] + (ej - 1,) + e[j + 1:]
                    w = sign * ej * c
                    for e1, c1 in f.components[j].coeffs.items():
                        k = tuple(map(add, e1, de))
                        acc[k] = acc.get(k, 0) + w * c1
        comps.append(Poly(n, deg, acc))
    return PolyVectorField(comps)


# ---------------------------------------------------------------------------
# Named conformal basis and the so(n+2) comparison
# ---------------------------------------------------------------------------

def named_conformal_basis(n):
    """Translations, rotations, dilation, special conformal (standard q)."""
    basis = []
    zero = lambda d: Poly(n, d)
    for i in range(n):
        basis.append((f"P{i+1}",
                      PolyVectorField([Poly(n, 0, {(0,) * n: 1}) if k == i
                                       else zero(0) for k in range(n)])))
    for i in range(n):
        for j in range(i + 1, n):
            comps = [zero(1) for _ in range(n)]
            comps[j] = Poly.variable(n, i)
            comps[i] = Poly.variable(n, j).scale(-1)
            basis.append((f"R{i+1}{j+1}", PolyVectorField(comps)))
    basis.append(("D", PolyVectorField([Poly.variable(n, k)
                                        for k in range(n)])))
    r2 = QuadraticForm.standard(n).as_poly()
    for i in range(n):
        comps = []
        for m in range(n):
            t = Poly.variable(n, i) * Poly.variable(n, m)
            t = t.scale(2)
            if m == i:
                t = t - r2
            comps.append(t)
        basis.append((f"K{i+1}", PolyVectorField(comps)))
    return basis


def _terms(field):
    """A field's coordinates: its terms {(component, exponents): coeff}."""
    return {(c, e): v for c, comp in enumerate(field.components)
            for e, v in comp.coeffs.items()}


def structure_constants(named_basis):
    """Exact structure constants of the conformal basis under the bracket.

    Returns a dict {(a, b): {c: coeff}} over basis indices a < b.
    """
    fields = [f for _, f in named_basis]
    targets = {(a, b): _terms(bracket(fields[a], fields[b]))
               for a in range(len(fields)) for b in range(a + 1, len(fields))}
    return _solve([_terms(f) for f in fields], targets,
                  [name for name, _ in named_basis])


def _solve(basis, targets, names):
    """Coordinates of every target vector over the basis vectors, exactly.

    Vectors are sparse dicts; `targets` maps a pair (a, b) to one. One
    reduced echelon form of the columns [basis | all targets], with each
    key that occurs numbered as a row, solves them all; a target outside
    the span raises ArithmeticError naming its pair.
    """
    keys = list(targets)
    index = {}
    cols = [{index.setdefault(r, len(index)): x for r, x in v.items()}
            for v in basis + [targets[k] for k in keys]]
    red, pivots = linalg.rref(cols)
    nb = len(basis)
    out = {k: {} for k in keys}
    for row, pc in zip(red, pivots):
        if pc >= nb:
            a, b = keys[pc - nb]
            raise ArithmeticError(
                f"[{names[a]}, {names[b]}] left the span of the basis")
        for j, x in row.items():
            if j >= nb:
                out[keys[j - nb]][pc] = x
    return out


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
    named = conformal_to_so_matrices(n)
    mats = [m for _, m in named]
    targets = {(a, b): _comm(mats[a], mats[b])
               for a in range(len(mats)) for b in range(a + 1, len(mats))}
    return _solve(mats, targets, [name for name, _ in named])


def check_jacobi(constants, dim):
    """Exact Jacobi identity on antisymmetrized structure constants."""
    c = {(a, a): {} for a in range(dim)}
    for (a, b), v in constants.items():
        c[a, b] = v
        c[b, a] = {k: -x for k, x in v.items()}

    for a in range(dim):
        for b in range(a + 1, dim):
            for cc in range(b + 1, dim):
                acc = {}
                for x, y, z in ((a, b, cc), (b, cc, a), (cc, a, b)):
                    for m, v in c[x, y].items():
                        for t, w in c[m, z].items():
                            acc[t] = acc.get(t, 0) + v * w
                if any(acc.values()):
                    return False, (a, b, cc)
    return True, None


def so_np2_isomorphism(n):
    """Compare conformal and so(n+2) structure constants exactly.

    Returns a report dict; raises ArithmeticError on any mismatch, naming
    the offending basis pair.
    """
    if n < 3:
        raise ValueError("the identification is stated for n >= 3")
    basis = named_conformal_basis(n)
    q = QuadraticForm.standard(n)
    for name, f in basis:
        if not ck_operator(f, q).is_zero():
            raise ArithmeticError(f"{name} is not conformal Killing")
    conf_c = structure_constants(basis)
    so_c = so_structure_constants(n)
    names = [name for name, _ in basis]
    for key in conf_c:
        if conf_c[key] != so_c[key]:
            a, b = key
            raise ArithmeticError(
                f"structure constants differ on [{names[a]}, {names[b]}]: "
                f"{conf_c[key]} vs {so_c[key]}"
            )
    dim = len(basis)
    ok, triple = check_jacobi(conf_c, dim)
    if not ok:
        raise ArithmeticError(f"Jacobi identity fails on triple {triple}")
    expected = (n + 2) * (n + 1) // 2
    if dim != expected:
        raise ArithmeticError(f"basis has {dim} elements, not {expected}")
    return {
        "n": n,
        "dimension": dim,
        "generators": names,
        "jacobi": "exact",
        "structure_constants_match": True,
    }


def basis_to_json(named_basis):
    return [
        {"name": name, "components": [c.to_json() for c in f.components]}
        for name, f in named_basis
    ]
