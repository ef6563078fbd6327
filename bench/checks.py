"""Closed forms for every op the benchmark runs, and the output checker.

Nothing here imports `liouville`: each expected value comes from a
textbook formula, so a wrong answer from the package cannot also be the
reference it is checked against.
"""

import ast
import json
from itertools import product
from math import comb

SELFTEST_CHECKS = [
    "weyl-dim binomials", "bott vanishing", "twisted sheaf table",
    "cech closed form", "y_dq ranks", "so(n+2) isomorphism",
    "reconf integrity",
]


class Mismatch(Exception):
    """An op's output disagrees with its closed form."""


# ---------------------------------------------------------------------------
# Closed forms
# ---------------------------------------------------------------------------

def sym_dim(n, d):
    """dim S^d(C^n)."""
    return comb(n + d - 1, d)


def schur_d2_dim(n, d):
    """dim Sigma^{d,2}(C^n) by the hook-content formula."""
    num = den = 1
    for row, length in ((0, d), (1, 2)):
        for col in range(length):
            leg = 1 if row == 0 and col < 2 else 0
            num *= n + col - row
            den *= length - col + leg
    return num // den


def ydq_dims(n, d):
    """(ker, coker) of y_{d,q}: injective for n >= 3, kernel 2 for n = 2."""
    if n == 2:
        return 2, 0
    return 0, schur_d2_dim(n, d) - sym_dim(n, d)


def ck_dim(n, d):
    """Degree-d conformal Killing fields on C^n: (n, n(n-1)/2+1, n, 0...)."""
    if n == 2:
        return 2
    return (n, n * (n - 1) // 2 + 1, n)[d] if d < 3 else 0


def so_names(n):
    """Generator names of the conformal basis: P, R, D, K."""
    return ([f"P{i + 1}" for i in range(n)]
            + [f"R{i + 1}{j + 1}" for i in range(n) for j in range(i + 1, n)]
            + ["D"] + [f"K{i + 1}" for i in range(n)])


def gl_dim(lam):
    """Weyl dimension of the GL(n) irreducible of dominant weight lam."""
    n = len(lam)
    num = den = 1
    for i in range(n):
        for j in range(i + 1, n):
            num *= lam[i] - lam[j] + j - i
            den *= j - i
    return num // den


def bott(a):
    """(degree, dominant weight), or None when a + rho repeats an entry."""
    n = len(a)
    v = [x + n - i for i, x in enumerate(a)]
    if len(set(v)) < n:
        return None
    inversions = sum(v[i] < v[j] for i in range(n) for j in range(i + 1, n))
    lam = [x - (n - i) for i, x in enumerate(sorted(v, reverse=True))]
    return inversions, lam


def h1_source(n, d):
    return schur_d2_dim(n, d) - sym_dim(n, d) if d >= 2 else 0


def reconf_rows(n, dmax, indexing):
    rows = []
    for d in range(dmax + 1):
        h1 = h1_source(n, d if indexing == "source" else d - 1)
        rows.append({"d": d, "h0": ck_dim(n, d), "h1": h1})
    return rows


def continuity_series(ns, dmax):
    out = {}
    for n in ns:
        if n == 2:
            out[str(n)] = {"h0": [2] * (dmax + 1), "h1": [0] * (dmax + 1)}
        else:
            rows = reconf_rows(n, max(dmax, 3), "source")[:dmax + 1]
            out[str(n)] = {"h0": [r["h0"] for r in rows],
                           "h1": [r["h1"] for r in rows]}
    return out


def cech_payload(n, box):
    slices, totals = [], {}
    for m in product(range(-box, box + 1), repeat=n):
        for i, holds in ((0, min(m) >= 0), (n - 1, max(m) <= -1)):
            if holds:
                slices.append({"multidegree": list(m), "i": i, "dim": 1})
                by_i = totals.setdefault(str(sum(m)), {})
                by_i[str(i)] = by_i.get(str(i), 0) + 1
    slices.sort(key=lambda s: (s["multidegree"], s["i"]))
    totals = {k: totals[k] for k in sorted(totals, key=int)}
    return {"n": n, "box": box, "slices": slices, "totals_by_degree": totals}


def cli_payload(cmd, args):
    """The JSON payload `liouville <cmd>` must print, minus schema_version."""
    if cmd == "bott":
        a = args["weight"]
        res = bott(a)
        if res is None:
            return {"weight": a, "result": "zero"}
        return {"weight": a, "degree": res[0], "dominant_weight": res[1],
                "dim": gl_dim(res[1])}
    if cmd == "sheaf":
        n, d, b = args["n"], args["d"], args["b"]
        res = bott([0] * (n - 2) + [-d, -b])
        coh, dims = {}, {}
        if res is not None:
            i, lam = res
            coh[str(i)] = [{"multiplicity": 1, "weight": lam}]
            dims[str(i)] = gl_dim(lam)
        return {"n": n, "d": d, "b": b, "cohomology": coh, "dims": dims}
    if cmd == "cech":
        return cech_payload(args["n"], args["box"])
    if cmd == "ydq":
        n, d = args["n"], args["d"]
        ker, coker = ydq_dims(n, d)
        out = {"n": n, "d": d, "ker": ker, "coker": coker}
        if args.get("oracle"):
            out["oracle"] = "agrees"
        return out
    if cmd == "killing":
        n, d = args["n"], args["d"]
        out = {"n": n, "d": d, "dim": ck_dim(n, d)}
        if d <= 2:
            names = so_names(n)
            out["generators"] = {0: names[:n], 1: names[n:-n],
                                 2: names[-n:]}[d]
        return out
    if cmd == "reconf":
        n, dmax = args["n"], args["dmax"]
        return {"n": n, "rows": reconf_rows(n, dmax, args["indexing"]),
                "h0_total": (n + 2) * (n + 1) // 2}
    if cmd == "continuity":
        return {"dmax": args["dmax"],
                "series": continuity_series(args["n_range"], args["dmax"])}
    if cmd == "selftest":
        return {"checks": SELFTEST_CHECKS, "status": "ok"}
    raise ValueError(f"unknown command {cmd!r}")


# ---------------------------------------------------------------------------
# What each output format shows, and how to read it back
# ---------------------------------------------------------------------------

def view(cmd, fmt, payload):
    """The part of a JSON payload that format `fmt` carries."""
    if fmt == "tsv" and cmd in ("cech", "reconf"):
        return {"slices" if cmd == "cech" else "rows":
                payload["slices" if cmd == "cech" else "rows"]}
    if fmt == "pretty" and cmd == "continuity":
        return {"series": payload["series"]}
    return payload


def _literal(text):
    try:
        return ast.literal_eval(text)
    except (ValueError, SyntaxError):
        return text


def _ints(fields):
    return [int(x) for x in fields]


def _row(fields):
    return dict(zip(("d", "h0", "h1"), _ints(fields)))


def parse(cmd, fmt, text):
    """Read a CLI output back into the shape `view` produces."""
    lines = text.rstrip("\n").split("\n")
    if fmt == "json":
        payload = json.loads(text)
        if payload.pop("schema_version", None) != 1:
            raise Mismatch("missing schema_version 1")
    elif fmt == "tsv" and cmd == "cech":
        payload = {"slices": []}
        for line in lines[1:]:
            m, i, dim = line.split("\t")
            payload["slices"].append({"multidegree": _ints(m.split(",")),
                                      "i": int(i), "dim": int(dim)})
    elif fmt == "tsv" and cmd == "reconf":
        payload = {"rows": [_row(line.split("\t")) for line in lines[1:]]}
    elif fmt == "tsv":
        payload = dict(line.split("\t", 1) for line in lines)
        payload = {k: _literal(v) for k, v in payload.items()}
    elif cmd == "reconf":
        n = int(lines[0].split("n = ")[1].split()[0])
        rows = [_row(line.split()) for line in lines[2:-1]]
        payload = {"n": n, "rows": rows,
                   "h0_total": int(lines[-1].split(":")[1])}
    elif cmd == "continuity":
        series = {}
        for line in lines:
            head, _, values = line.partition(": ")
            n, key = head.split()
            series.setdefault(n[2:], {})[key.lower()] = _literal(values)
        payload = {"series": series}
    else:
        payload = json.loads(text)
    if cmd == "killing" and "generators" in payload:
        payload["generators"] = [g["name"] for g in payload["generators"]]
    return payload


# ---------------------------------------------------------------------------
# The checker
# ---------------------------------------------------------------------------

def expected(op):
    """The normalized result `workloads.execute(op)` must return."""
    kind = op["kind"]
    if kind == "ydq":
        return ydq_dims(op["n"], op["d"])
    if kind == "ck":
        return [ck_dim(op["n"], d) for d in range(op["dmax"] + 1)]
    if kind == "so":
        n = op["n"]
        return {"n": n, "dimension": (n + 2) * (n + 1) // 2,
                "generators": so_names(n), "jacobi": "exact",
                "structure_constants_match": True}
    if kind == "cli":
        return view(op["cmd"], op["fmt"], cli_payload(op["cmd"], op["args"]))
    raise ValueError(f"unknown op kind {kind!r}")


def check(op, result):
    """Raise Mismatch unless `result` is the closed-form answer for `op`."""
    if op["kind"] == "seq":
        if len(result) != len(op["ops"]):
            raise Mismatch(f"{len(result)} results for {len(op['ops'])} ops")
        for sub, sub_result in zip(op["ops"], result):
            check(sub, sub_result)
        return
    if op["kind"] == "cli":
        code, out = result
        if code != 0:
            raise Mismatch(f"exit code {code}")
        try:
            got = parse(op["cmd"], op["fmt"], out)
        except (ValueError, KeyError, IndexError) as e:
            raise Mismatch(f"unreadable {op['fmt']} output: {e}") from e
    elif op["kind"] == "ck":
        got = [len(basis) for basis in result]
    else:
        got = result
    want = expected(op)
    if got != want:
        raise Mismatch(f"{op}: got {got!r}, expected {want!r}")
