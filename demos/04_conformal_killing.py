"""Conformal Killing fields of flat space and the so(n+2) identification.

Computes the kernel of the traceless symmetrized gradient degree by
degree, names the basis (translations, rotations, dilation, special
conformal), and matches the bracket table against an explicit so(n+2).
"""

from liouville import killing

n = 3

print(f"kernel of the conformal Killing operator, n = {n}")
for d in range(5):
    fields = killing.ck_kernel(n, d)
    # the operator itself, applied field by field, kills the whole kernel
    if any(not killing.ck_operator(f).is_zero() for f in fields):
        raise ArithmeticError(f"a degree-{d} kernel field is not killed")
    print(f"  degree {d}: dimension {len(fields)}")

print()
print("named basis and a few brackets")
basis = killing.named_conformal_basis(n)
names = [name for name, _ in basis]
print("  generators:", ", ".join(names))
c = killing.structure_constants(basis)
for a, b in [("P1", "K1"), ("D", "P1"), ("R12", "P1")]:
    i, j = names.index(a), names.index(b)
    # constants are stored for i < j; antisymmetry covers the rest
    sign = 1 if i < j else -1
    terms = {names[k]: str(sign * v)
             for k, v in c[(min(i, j), max(i, j))].items() if v}
    print(f"  [{a}, {b}] = {terms}")

print()
print("identification with so(n+2) (raises on any mismatch)")
for m in (3, 4, 5):
    killing.so_np2_isomorphism(m)
    dim = (m + 2) * (m + 1) // 2
    jacobi, _ = killing.check_jacobi(killing.so_structure_constants(m), dim)
    print(f"  n = {m}: structure constants match, Jacobi exact: {jacobi},"
          f" dim {dim}")
