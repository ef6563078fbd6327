"""Command-line front end. Every computation, reproducible output.

Exit codes: 0 success, 1 usage error, 2 integrity-check failure. Each
answer is checked where it is computed: y_dq's (ker, coker) in
`young_map.kernel_cokernel_dims` and the Young oracle's (`ydq --oracle`)
in `young_map.young_symmetrizer_oracle`, both against one Pieri count,
the Killing kernel's dimension in `killing.ck_kernel`, and the answers
of `bott`, `cech` and `reconf` in their own modules. The commands add
only `killing`'s check of the named generators it prints and
`selftest`'s own checks.

This module alone writes output: the layers return data, each command
builds its payload as one dict, and the JSON, TSV and pretty text of
every command are written here from that dict.
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
# a limit took: reconf --n 3 --dmax 200000 5.2 s, continuity --n-range 2
# --dmax 399 5.8 s, bott --weight 500,499,..,1 3.4 s, sheaf --n 10000
# 2.7 s, ydq --n 7 --d 5 0.04 s, cech --n 6 --box 3 0.02 s. cech solves one
# complex per negative support, and the complex of the empty support has
# 2^n - 1 cochains at any box (cech --n 16 --box 0 took 65 s), so
# CECH_BUDGET counts at least 2 slices per axis: box 0 is admitted up to
# n = 11 (0.2 s) and refused from n = 12 on. KILLING_BUDGET counts the
# n dim S^d Killing columns or the n components of each generator of
# degree d that killing builds, whichever is more; at n = 2, where the
# kernel has 2 fields in every degree and the echelon's time grows as d^3
# (ck_kernel(2, 1000) 0.47 s, (2, 4000) 34 s), each column counts d + 1.
# The largest admitted d per n took: --n 3 --d 153 0.30 s, --n 4 --d 35
# 0.29 s, --n 7 --d 9 0.33 s, --n 11 --d 5 0.48 s, --n 20 --d 3 0.44 s,
# --n 41 --d 2 1.1 s, --n 189 --d 0 0.07 s, --n 2 --d 133 0.01 s.
CECH_BUDGET = 10 ** 7  # max(2*box+1, 2)^n slices times 2^n cover subsets
YDQ_BUDGET = 20_000  # dim S^d * dim S^2 monomials of bidegree (d, 2)
KILLING_BUDGET = 36_000  # n * max(dim S^d columns, generators of degree d)
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
            print(_tsv(sorted(payload.items())))
        else:
            print(json.dumps(payload, sort_keys=True, indent=2))
    finally:
        if limit is not None:
            sys.set_int_max_str_digits(limit)


def _tsv(rows):
    """One line per row, its fields as str() gives them, tab-separated."""
    return "\n".join("\t".join(map(str, row)) for row in rows)


# Each cmd_* returns (payload, render), render mapping "tsv" or "pretty"
# to a function that gives the text of that format, where it has its own.
# JSON, and a format without its own text, is written from the payload:
# TSV as its sorted (key, value) pairs, pretty as indented sorted JSON.

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
    payload = {"n": args.n, "d": args.d, "b": args.b,
               "cohomology": {}, "dims": {}}
    if gc is not None:  # one irreducible piece, of multiplicity 1
        i, lam = gc
        payload["cohomology"][str(i)] = [{"weight": list(lam),
                                          "multiplicity": 1}]
        payload["dims"][str(i)] = bott._sdg_dim(args.n, args.d, args.b, gc)
    return payload, {}


def cmd_cech(args):
    n = max(args.n, 0)
    slices = max(2 * args.box + 1, 2) ** n
    _within_budget("CECH_BUDGET", CECH_BUDGET, slices * 2 ** n)
    rows, totals = cech.punctured_affine_table(args.n, args.box)
    payload = {"n": args.n, "box": args.box,
               "slices": [{"multidegree": list(m), "i": i, "dim": d}
                          for m, i, d in rows],
               "totals_by_degree": {
                   str(deg): {str(i): d for i, d in by_i.items()}
                   for deg, by_i in totals.items()}}
    return payload, {"tsv": lambda: _tsv([("multidegree", "i", "dim")] + [
        (",".join(map(str, m)), i, d) for m, i, d in rows])}


def cmd_ydq(args):
    n, d = args.n, args.d
    _within_budget("YDQ_BUDGET", YDQ_BUDGET,
                   weights.sym_dim(n, d) * weights.sym_dim(n, 2))
    # max(): at d < 2, refused below, 0 ** (d + 2) would divide by zero
    if args.oracle and n ** max(d + 2, 0) > young_map.ORACLE_WORDS:
        raise ValueError("oracle out of range for these parameters")
    ker, coker = young_map.kernel_cokernel_dims(n, d)
    payload = {"n": n, "d": d, "ker": ker, "coker": coker}
    if args.oracle:  # checks its own (ker, coker) against the same count
        young_map.young_symmetrizer_oracle((d, 2), n)
        payload["oracle"] = "agrees"
    return payload, {}


def cmd_killing(args):
    n, d = args.n, args.d
    # n = 2 has a kernel in every degree (see KILLING_BUDGET)
    cols = n * weights.sym_dim(n, d) * (d + 1 if n == 2 else 1)
    _within_budget("KILLING_BUDGET", KILLING_BUDGET,
                   max(cols, n * killing.liouville_dim(n, d)))
    payload = {"n": n, "d": d, "dim": len(killing.ck_kernel(n, d))}
    if d <= 2:
        gens = killing.named_generators(n, d)
        if d:  # every constant field is conformal Killing
            killing._check_conformal(n, gens)
        payload["generators"] = [{"name": name, "components": _components(t)}
                                 for name, t in gens]
    return payload, {}


def _components(terms):
    """A field's terms {(component, exponents): coeff} as its components
    on C^n (n read off the exponents), each a list of {"exponents",
    "coeff"} in descending exponent order."""
    comps = [[] for _ in range(max((len(e) for _, e in terms), default=0))]
    for c, e in sorted(terms, key=lambda k: k[1], reverse=True):
        comps[c].append({"exponents": list(e), "coeff": str(terms[c, e])})
    return comps


def cmd_reconf(args):
    _within_budget("RECONF_BUDGET", RECONF_BUDGET,
                   (args.dmax + 1) * args.n ** 2)
    table = reconf.reconf_table(args.n, args.dmax, indexing=args.indexing)
    rows = [(d, table[d]["h0"], table[d]["h1"]) for d in sorted(table)]
    payload = {"n": args.n,
               "rows": [{"d": d, "h0": h0, "h1": h1} for d, h0, h1 in rows],
               "h0_total": reconf.h0_total(table)}
    return payload, {
        "tsv": lambda: _tsv([("d", "h0", "h1")] + rows),
        "pretty": lambda: "\n".join([
            f"R conf table for n = {args.n} (H^i = 0 for i >= 2)",
            f"{'d':>4} {'H^0':>6} {'H^1':>8}",
            *(f"{d:>4} {h0:>6} {h1:>8}" for d, h0, h1 in rows),
            f"H^0 total: {payload['h0_total']}"])}


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
        # sdg_cohomology_on_P checks each answer against bott.sdg_table
        ("twisted sheaf table", lambda: [
            bott.sdg_cohomology_on_P(n, d, b)
            for n in range(3, 6) for d in range(8) for b in (-1, 1)]),
        ("cech closed form", lambda: cech.punctured_affine_table(3, 2)),
        ("y_dq ranks", _selftest_ydq),
        ("so(n+2) isomorphism", lambda: killing.so_np2_isomorphism(3)),
        ("reconf integrity", lambda: reconf.reconf_table(3, 5)),
    ]
    for name, check in checks:
        try:
            check()
        except ArithmeticError as e:
            raise ArithmeticError(f"{name}: {e}") from e
    return {"checks": [name for name, _ in checks], "status": "ok"}, {}


def _selftest_weyl():
    for n in range(1, 6):
        for d in range(0, 8):
            dim = weights.weyl_dim(weights.pad((d,), n))
            if dim != (h := weights.sym_dim(n, d)):
                raise ArithmeticError(f"dim S^{d} of C^{n} is {dim}, not {h}")


def _selftest_bott():
    # the Euler characteristic, Weyl's prod_{i<j} (w_i - w_j + j - i)/(j - i)
    # on the unsorted weight, is 0 exactly when Bott vanishes, else
    # (-1)^degree times it on Bott's weight: compared as numerators
    import random
    from itertools import combinations
    from math import prod
    weyl = lambda w: prod(x - y for x, y in combinations(
        [x - i for i, x in enumerate(w)], 2))
    rng = random.Random(7)
    for _ in range(500):
        n = rng.randint(2, 5)
        a = tuple(rng.randint(-6, 6) for _ in range(n))
        res, num = bott.bott_cohomology(a), weyl(a)
        if (res is None) != (num == 0) or res and (
                num != (-1) ** res[0] * weyl(res[1])):
            raise ArithmeticError(f"Bott gives {res} for weight {a}, whose "
                                  f"Weyl numerator is {num}")


def _selftest_ydq():
    for n, d in ((2, 2), (2, 3), (3, 2), (3, 3)):
        # checks its own (ker, coker)
        young_map.kernel_cokernel_dims(n, d)
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
