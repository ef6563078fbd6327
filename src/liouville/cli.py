"""Command-line front end. Every computation, reproducible output.

Exit codes: 0 success, 1 usage error, 2 integrity-check failure (an
exact rank disagreeing with a dimension formula).
"""

import argparse
import functools
import json
import os
import sys

from . import bott, cech, killing, reconf, weights, young_map
from .polyspaces import Poly, QuadraticForm, monomials

SCHEMA_VERSION = 1

# The largest enumeration each command starts; a larger input exits 1
# before any work. In process on a 2-vCPU VM (CPython 3.11), inputs near
# a limit took: reconf --n 3 --dmax 200000 11 s, continuity --n-range 2
# --dmax 399 12 s, bott --weight 500,499,..,1 4 s, sheaf --n 10000 4 s,
# ydq --n 7 --d 5 0.05 s, cech --n 6 --box 3 0.05 s. cech solves one
# complex per negative support, and the complex of the empty support has
# 2^n - 1 cochains at any box (cech --n 16 --box 0 took 65 s), so
# CECH_BUDGET counts at least 2 slices per axis: box 0 is admitted up to
# n = 11 (0.2 s) and refused from n = 12 on. KILLING_BUDGET weights the
# Killing kernel's columns by d + 1 (ck_kernel(3, 60) takes 0.25 s on
# 5,673 columns, ck_kernel(3, 80) 0.40 s) and still counts all
# (n+2)(n+1)/2 named generators of n components each, though killing
# builds only those of degree d (the refused --n 240 --d 0 takes 0.8 s).
# Admitted killing inputs near it took: --n 40 --d 0 0.01 s, --n 40 --d 1
# 0.31 s, --n 28 --d 2 0.72 s, --n 10 --d 4 0.38 s, --n 3 --d 27 0.06 s.
CECH_BUDGET = 10 ** 7  # max(2*box+1, 2)^n slices times 2^n cover subsets
YDQ_BUDGET = 20_000  # dim S^d * dim S^2 monomials of bidegree (d, 2)
KILLING_BUDGET = 36_000  # n * max((d+1) * dim S^d, (n+2)(n+1)/2)
RECONF_BUDGET = 2 * 10 ** 6  # dmax + 1 rows times n^2 weight-entry pairs
CONTINUITY_BUDGET = 400  # dmax + 1 rows per n of the range
BOTT_BUDGET = 500  # weight entries; Bott and Weyl walk every pair of them
SHEAF_BUDGET = 10_000  # n, the length of the flag weight of S^d(G)(b)


def _within_budget(name, limit, size):
    if size > limit:
        raise ValueError(f"{size} cases exceed {name} = {limit}")


def _emit(payload, fmt, render):
    # an exact dimension may have more digits than CPython's default
    # int-to-str limit (4300); lift it for printing only (3.10.7+, 3.11+)
    limit = getattr(sys, "get_int_max_str_digits", lambda: None)()
    if limit is not None:
        sys.set_int_max_str_digits(0)
    try:
        if fmt == "json":
            payload = dict(payload)
            payload["schema_version"] = SCHEMA_VERSION
            print(json.dumps(payload, sort_keys=True, separators=(",", ":")))
        elif fmt in render:
            print(render[fmt]())
        elif fmt == "tsv":
            print(_default_tsv(payload))
        else:
            print(json.dumps(payload, sort_keys=True, indent=2))
    finally:
        if limit is not None:
            sys.set_int_max_str_digits(limit)


def _default_tsv(payload):
    return "\n".join(f"{k}\t{payload[k]}" for k in sorted(payload))


# Each cmd_* returns (payload, render), render mapping "tsv" or "pretty"
# to a function that gives the text of that format, where it has its own.

def cmd_bott(args):
    a = tuple(int(x) for x in args.weight.split(","))
    _within_budget("BOTT_BUDGET", BOTT_BUDGET, len(a))
    res = bott.bott_cohomology(a)
    if res is None:
        payload = {"weight": list(a), "result": "zero"}
    else:
        payload = {"weight": list(a), "degree": res[0],
                   "dominant_weight": list(res[1]),
                   "dim": weights.weyl_dim(res[1])}
    return payload, {}


def cmd_sheaf(args):
    _within_budget("SHEAF_BUDGET", SHEAF_BUDGET, args.n)
    gc = bott.sdg_cohomology_on_P(args.n, args.d, args.b)
    payload = {"n": args.n, "d": args.d, "b": args.b}
    payload.update(bott.graded_to_json(gc))
    return payload, {}


def cmd_cech(args):
    n = max(args.n, 0)
    slices = max(2 * args.box + 1, 2) ** n
    _within_budget("CECH_BUDGET", CECH_BUDGET, slices * 2 ** n)
    rows, totals = cech.punctured_affine_table(args.n, args.box)
    payload = {"n": args.n, "box": args.box}
    payload.update(cech.table_to_json(rows, totals))
    return payload, {"tsv": lambda: cech.table_to_tsv(rows)}


def cmd_ydq(args):
    _within_budget("YDQ_BUDGET", YDQ_BUDGET, weights.sym_dim(args.n, args.d)
                   * weights.sym_dim(args.n, 2))
    if args.oracle and (args.n > 3 or args.n ** (args.d + 2) > 243):
        raise ValueError("oracle out of range for these parameters")
    ker, coker = young_map.kernel_cokernel_dims(args.n, args.d)
    payload = {"n": args.n, "d": args.d, "ker": ker, "coker": coker}
    if args.oracle:
        rank_sym, rank_y = young_map.young_symmetrizer_oracle(
            (args.d, 2), args.n)
        oracle_ker = weights.sym_dim(args.n, args.d) - rank_y
        oracle_coker = rank_sym - rank_y
        if (oracle_ker, oracle_coker) != (ker, coker):
            raise ArithmeticError(
                f"young_map oracle mismatch at n={args.n}, d={args.d}: "
                f"({oracle_ker}, {oracle_coker}) vs ({ker}, {coker})"
            )
        payload["oracle"] = "agrees"
    return payload, {}


def cmd_killing(args):
    n, d = args.n, args.d
    _within_budget("KILLING_BUDGET", KILLING_BUDGET,
                   n * max((d + 1) * weights.sym_dim(n, d),
                           (n + 2) * (n + 1) // 2))
    basis = killing.ck_kernel(n, d)
    payload = {"n": n, "d": d, "dim": len(basis)}
    if d <= 2:
        payload["generators"] = killing.basis_to_json(
            killing.named_generators(n, d))
    return payload, {}


def cmd_reconf(args):
    _within_budget("RECONF_BUDGET", RECONF_BUDGET,
                   (args.dmax + 1) * args.n ** 2)
    table = reconf.reconf_table(args.n, args.dmax, indexing=args.indexing)
    return reconf.table_to_json(args.n, table), {
        "tsv": lambda: reconf.table_to_tsv(table),
        "pretty": lambda: reconf.table_to_pretty(args.n, table)}


def cmd_continuity(args):
    ns = [int(x) for x in args.n_range.split(",")]
    _within_budget("CONTINUITY_BUDGET", CONTINUITY_BUDGET,
                   (args.dmax + 1) * len(ns))
    report = reconf.continuity_report(ns, args.dmax)
    payload = {"dmax": args.dmax,
               "series": {str(n): report[n] for n in report}}
    return payload, {"pretty": lambda: "\n".join(
        f"n={n}  {h.upper()}: {report[n][h]}"
        for n in ns for h in ("h0", "h1"))}


def cmd_selftest(args):
    checks = [
        ("weyl-dim binomials", _selftest_weyl),
        ("bott vanishing", _selftest_bott),
        ("twisted sheaf table", _selftest_sheaf_table),
        ("cech closed form", lambda: cech.punctured_affine_table(3, 2)),
        ("y_dq ranks", _selftest_ydq),
        ("so(n+2) isomorphism", lambda: killing.so_np2_isomorphism(3)),
        ("reconf integrity", lambda: reconf.reconf_table(3, 5)),
    ]
    for _, check in checks:
        check()
    return {"checks": [name for name, _ in checks], "status": "ok"}, {}


def _selftest_weyl():
    from math import comb
    for n in range(1, 6):
        for d in range(0, 8):
            dim = weights.weyl_dim(weights.pad((d,), n))
            if dim != comb(n + d - 1, d):
                raise ArithmeticError(
                    f"dim S^{d} of C^{n} is {dim}, not {comb(n + d - 1, d)}")


def _selftest_bott():
    import random
    rng = random.Random(7)
    for _ in range(500):
        n = rng.randint(2, 5)
        a = tuple(rng.randint(-6, 6) for _ in range(n))
        res = bott.bott_cohomology(a)
        v = [x + r for x, r in zip(a, bott.rho(n))]
        if (res is None) != (len(set(v)) < n):
            raise ArithmeticError(f"Bott vanishing wrong for weight {a}")


def _selftest_sheaf_table():
    for n in range(3, 6):
        for d in range(0, 8):
            for b in (-1, 1):
                gc = bott.sdg_cohomology_on_P(n, d, b)
                if len(gc) > 1:
                    raise ArithmeticError(
                        f"S^{d}(G)({b}) on P(C^{n}) has cohomology in "
                        f"degrees {sorted(gc)}")


def _selftest_ydq():
    for n, d in ((2, 2), (2, 3), (3, 2), (3, 3)):
        ker, coker = young_map.kernel_cokernel_dims(n, d)
        ok = (ker, coker) == (2, 0) if n == 2 else ker == 0
        if not ok:
            raise ArithmeticError(
                f"y_dq at n={n}, d={d} has ker={ker}, coker={coker}")
        # the closed form behind the columns against the generic projector
        # on x^e q(y): a multiple of y_dq keeps every rank but fails here
        q = QuadraticForm.standard(n)
        qy = q.as_poly().coeffs
        for e in monomials(n, d):
            F = Poly(2 * n, d + 2, {e + k: c for k, c in qy.items()})
            if (young_map.y_dq(Poly.monomial(n, e), q)
                    != young_map.project_isotypic(F)):
                raise ArithmeticError(
                    f"y_dq(x^{e}) at n={n}, d={d} disagrees with the "
                    f"extremal projector")


@functools.cache
def build_parser():
    """The argument parser, built once per process: parse_args leaves it
    unchanged, so every run shares it."""
    common = argparse.ArgumentParser(add_help=False)
    common.add_argument("--format", choices=["json", "tsv", "pretty"],
                        default="json")
    p = argparse.ArgumentParser(
        prog="liouville",
        description="Exact cohomology computations for the derived "
                    "conformal algebra of flat space.",
    )
    sub = p.add_subparsers(dest="command", required=True)

    sp = sub.add_parser("bott", parents=[common],
                        help="Bott's algorithm on a flag weight")
    sp.add_argument("--weight", required=True,
                    help="comma-separated integers, e.g. 0,0,-3,1")
    sp.set_defaults(fn=cmd_bott)

    sp = sub.add_parser("sheaf", parents=[common], help="cohomology of S^d(G)(b) on P(M)")
    sp.add_argument("--n", type=int, required=True)
    sp.add_argument("--d", type=int, required=True)
    sp.add_argument("--b", type=int, required=True)
    sp.set_defaults(fn=cmd_sheaf)

    sp = sub.add_parser("cech", parents=[common], help="punctured affine space table")
    sp.add_argument("--n", type=int, required=True)
    sp.add_argument("--box", type=int, required=True)
    sp.set_defaults(fn=cmd_cech)

    sp = sub.add_parser("ydq", parents=[common], help="kernel/cokernel of y_{d,q}")
    sp.add_argument("--n", type=int, required=True)
    sp.add_argument("--d", type=int, required=True)
    sp.add_argument("--oracle", action="store_true",
                    help="cross-check with the Young-symmetrizer oracle")
    sp.set_defaults(fn=cmd_ydq)

    sp = sub.add_parser("killing", parents=[common], help="conformal Killing fields")
    sp.add_argument("--n", type=int, required=True)
    sp.add_argument("--d", type=int, required=True)
    sp.set_defaults(fn=cmd_killing)

    sp = sub.add_parser("reconf", parents=[common], help="graded cohomology table")
    sp.add_argument("--n", type=int, required=True)
    sp.add_argument("--dmax", type=int, required=True)
    sp.add_argument("--indexing", choices=["source", "bundle"],
                    default="source")
    sp.set_defaults(fn=cmd_reconf)

    sp = sub.add_parser("continuity", parents=[common], help="cross-n Hilbert series")
    sp.add_argument("--n-range", default="2,3,4",
                    help="comma-separated list of n values")
    sp.add_argument("--dmax", type=int, default=6)
    sp.set_defaults(fn=cmd_continuity)

    sp = sub.add_parser("selftest", parents=[common], help="run the invariant suite")
    sp.set_defaults(fn=cmd_selftest)

    return p


def run(argv):
    """Parse argv, run its command, print its output; return the exit code."""
    try:
        args = build_parser().parse_args(argv)
    except SystemExit as e:
        return 1 if e.code else 0
    try:
        payload, render = args.fn(args)
        _emit(payload, args.format, render)
    except ArithmeticError as e:
        print(f"integrity failure [{args.command}]: {e}", file=sys.stderr)
        return 2
    except ValueError as e:
        print(f"error [{args.command}]: {e}", file=sys.stderr)
        return 1
    return 0


def main():
    try:
        code = run(sys.argv[1:])
        sys.stdout.flush()
    except BrokenPipeError:
        # the reader closed early (`| head`): point stdout at devnull so the
        # interpreter's own flush at exit does not raise a second time
        os.dup2(os.open(os.devnull, os.O_WRONLY), sys.stdout.fileno())
        sys.exit(1)
    sys.exit(code)


if __name__ == "__main__":
    main()
