"""Seeded workloads: each turns a seed into a list of ops, and runs one op.

An op is a plain dict, so op lists compare and print as data. The
package only ever sees the inputs an op carries. Every workload is a
closed loop with one sequential client: an op starts when the previous
one has returned.
"""

import contextlib
import io
import random

# reconf.EXACT_RANGE when this benchmark was defined. reconf/continuity ops
# stay inside it, so a later change that certifies a larger range does not
# change the work of any op here.
EXACT_RANGE = {3: 6, 4: 5, 5: 3}

FORMATS = ["json"] * 7 + ["tsv", "tsv", "pretty", "pretty"]


def _diagonal(rng, n):
    """Small nonzero integer diagonal: the zero pattern and parity grading
    of the standard q, with other coefficients."""
    return [rng.choice((-3, -2, -1, 1, 2, 3)) for _ in range(n)]


def ydq_certify(seed):
    rng = random.Random(seed)
    ops = [{"kind": "ydq", "n": n, "d": d, "q": _diagonal(rng, n)}
           for n, d in ((2, 6), (4, 5), (6, 5), (7, 4))]
    return ops, ops[0]


def so_structure(seed):
    """Two ops, one per dimension: the n = 5 op is the graded Killing kernel
    of the seeded q through degree 3 followed by the so(7) identification.
    Grouped this way, the op-latency percentiles of the pass rest on ops of
    several seconds, not on a single kernel of a second or less."""
    rng = random.Random(seed)
    q = _diagonal(rng, 5)
    ops = [{"kind": "seq", "ops": [{"kind": "ck", "n": 5, "dmax": 3, "q": q},
                                   {"kind": "so", "n": 5}]},
           {"kind": "so", "n": 6}]
    return ops, {"kind": "ck", "n": 5, "dmax": 1, "q": q}


def _cli(cmd, **args):
    return {"kind": "cli", "cmd": cmd, "args": args, "fmt": "json"}


# The heavier cli-mix ops form a fixed multiset: the seed orders them and
# picks their output format, so the work of a pass does not depend on it.
# Nine of them cost about the same (ydq (2,5) with the oracle, ydq (4,4),
# reconf (3,6), killing (4,3)), so the 90th latency percentile falls
# inside a cluster rather than on a step between two op sizes.
_HEAVY = (
    [_cli("cech", n=n, box=b) for n, b in
     [(3, 2)] * 3 + [(4, 1)] * 3 + [(4, 2)] * 2 + [(5, 1)] * 2]
    + [_cli("ydq", n=n, d=d, oracle=True) for n, d in
       [(2, 2), (2, 3), (2, 4), (2, 5), (3, 2), (3, 3)] * 2 + [(2, 5)]]
    + [_cli("ydq", n=n, d=d, oracle=False) for n, d in
       [(3, 4), (3, 4), (3, 5), (4, 3), (4, 3), (4, 4), (4, 4), (4, 4),
        (5, 3), (2, 6), (2, 7)]]
    + [_cli("killing", n=n, d=d) for n, d in
       [(3, 3), (3, 3), (4, 2), (4, 2), (4, 3), (5, 1), (5, 1), (5, 2),
        (5, 2)]]
    + [_cli("reconf", n=n, dmax=m, indexing=i) for n, m, i in
       [(3, 4, "source"), (3, 4, "source"), (3, 5, "bundle"),
        (3, 6, "source"), (3, 6, "source"), (4, 4, "source"),
        (4, 5, "bundle"), (4, 5, "source"), (5, 3, "source"), (5, 3, "source"),
        (5, 3, "bundle")]]
    + [_cli("continuity", n_range=ns, dmax=m) for ns, m in
       [([2, 3], 4), ([2, 3], 4), ([2, 3, 4], 5), ([2, 5], 3),
        ([3, 4, 5], 3)]]
    + [_cli("selftest")] * 2
)


def cli_mix(seed):
    """150 `liouville` commands: the cheap ones in a fixed multiset of
    sizes too, so the seed picks only the Bott weights, the sheaf twists,
    the order and the output formats. The work of a pass, and which op
    sits at the median latency, then hardly depend on the seed."""
    rng = random.Random(seed)
    ops = [_cli("bott", weight=[rng.randint(-6, 6) for _ in range(2 + k % 4)])
           for k in range(42)]
    ops += [_cli("sheaf", n=2 + k % 4, d=k % 8, b=rng.choice((-1, 1)))
            for k in range(22)]
    ops += [_cli("cech", n=n, box=box) for n, box in
            [(2, 1), (2, 2), (2, 3), (3, 1), (2, 2), (3, 1)]]
    # 70 ops cost less than killing (3, 0) and 71 more, so the median
    # latency falls in the middle of its nine copies, not on a step
    # between two op sizes.
    ops += [_cli("killing", n=n, d=d) for n, d in
            [(3, 0)] * 9 + [(3, 1), (4, 0)] * 3 + [(4, 1)] * 4]
    ops += [dict(op) for op in _HEAVY]
    for op in ops:
        op["fmt"] = rng.choice(FORMATS)
    rng.shuffle(ops)
    return ops, next(op for op in ops if op["cmd"] == "bott")


WORKLOADS = {
    "ydq-certify": ydq_certify,
    "so-structure": so_structure,
    "cli-mix": cli_mix,
}


def generate(workload, seed):
    """(ops of one pass, the set-up's warm-up op) for a workload and seed."""
    return WORKLOADS[workload](seed)


def argv(op):
    """Command line of a cli op."""
    out = [op["cmd"]]
    for key, value in op["args"].items():
        if key == "oracle":
            out += ["--oracle"] if value else []
        elif key == "n_range":
            out += ["--n-range", ",".join(map(str, value))]
        elif key == "weight":
            out += ["--weight=" + ",".join(map(str, value))]
        else:
            out += [f"--{key}", str(value)]
    return out + ["--format", op["fmt"]]


def _quadratic_form(lv, diag):
    n = len(diag)
    return lv.polyspaces.QuadraticForm(
        [[diag[i] if i == j else 0 for j in range(n)] for i in range(n)])


def prepare(lv, op):
    """Build the package inputs of an op (set-up work, not timed per op)."""
    if op["kind"] in ("ydq", "ck"):
        return _quadratic_form(lv, op["q"])
    if op["kind"] == "cli":
        return argv(op)
    if op["kind"] == "seq":
        return [prepare(lv, sub) for sub in op["ops"]]
    return None


def execute(lv, op, prepared):
    """Run one op and return its result in a comparable form."""
    kind = op["kind"]
    if kind == "ydq":
        return lv.young_map.kernel_cokernel_dims(op["n"], op["d"], prepared)
    if kind == "ck":
        return [[[sorted(c.coeffs.items()) for c in f.components]
                 for f in lv.killing.ck_kernel(op["n"], d, prepared)]
                for d in range(op["dmax"] + 1)]
    if kind == "so":
        return lv.killing.so_np2_isomorphism(op["n"])
    if kind == "seq":
        return [execute(lv, sub, p) for sub, p in zip(op["ops"], prepared)]
    out, err = io.StringIO(), io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        code = lv.cli.run(prepared)
    return code, out.getvalue()
