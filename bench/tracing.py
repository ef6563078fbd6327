"""Spans around the package's public functions, and the per-layer metrics
computed from them.

A `Tracer` wraps each function in `TRACED` and rebinds every name that
refers to it in every loaded `liouville` module, so a function imported
by name into several modules (`monomials`, `weyl_dim`) is seen from each
of them. Spans stay in memory as [name, start, end, parent, excluded,
stats]; `excluded` is the tracer's own bookkeeping time spent directly
inside a span, which is not charged to that span's self time.
`overhead_s` adds up all of the tracer's bookkeeping, top-level spans
included.
"""

import contextlib
import sys
import time

# Layers are the modules of liouville; these are their public functions.
TRACED = {
    "cli": ["run"],
    "reconf": ["reconf_table", "h1_entry"],
    "young_map": ["y_dq_columns", "y_dq", "casimir_apply",
                  "kernel_cokernel_dims", "bipoly_basis"],
    "killing": ["so_np2_isomorphism", "structure_constants",
                "so_structure_constants", "bracket", "check_jacobi",
                "ck_kernel"],
    "cech": ["cech_slice", "punctured_affine_table"],
    "bott": ["bott_cohomology", "les_restriction_to_Q"],
    "weights": ["weyl_dim"],
    "polyspaces": ["monomials"],
    "linalg": ["rank_sparse", "rref", "nullspace", "rank"],
}

# Counters beyond calls and self_s, per function.
EXTRA = {
    "young_map.y_dq_columns": ["rows", "cols", "nnz"],
    "linalg.rank_sparse": ["cols", "nnz", "rank_frac", "in_maxbits"],
    "linalg.rref": ["cells", "in_maxbits"],
    "linalg.nullspace": ["cells", "in_maxbits"],
    "linalg.rank": ["rank_frac"],
    "reconf.h1_entry": ["exact_frac"],
}

UNITS = {"calls": "count", "self_s": "s", "rows": "count", "cols": "count",
         "nnz": "count", "cells": "count", "rank_frac": "ratio",
         "exact_frac": "ratio", "in_maxbits": "bits"}

FUNCTIONS = [f"{mod}.{fn}" for mod, fns in TRACED.items() for fn in fns]

# Whole-pass figures of the traced run, added by run.py.
PASS_METRICS = [("trace.wall_s", "s"), ("trace.overhead_s", "s")]

METRICS = ([(f"{fn}.{stat}", UNITS[stat]) for fn in FUNCTIONS
            for stat in ["calls", "self_s"] + EXTRA.get(fn, [])]
           + PASS_METRICS)


def _maxbits(values):
    """Largest bit length of a numerator or denominator among `values`."""
    return max((max(abs(x.numerator).bit_length(), x.denominator.bit_length())
                for x in values), default=0)


def _y_dq_columns(args, result):
    cols = result[0]
    return {"rows": len(set().union(*cols)), "cols": len(cols),
            "nnz": sum(map(len, cols))}


def _rank_sparse(args, result):
    cols = args[0]
    return {"cols": len(cols),
            "nnz": sum(1 for c in cols for x in c.values() if x),
            "rank": result,
            "in_maxbits": _maxbits(x for c in cols for x in c.values())}


def _rank(args, result):
    rows = args[0]
    return {"cols": len(rows[0]) if rows else 0, "rank": result}


def _dense(args, result):
    rows = args[0]
    return {"cells": len(rows) * len(rows[0]) if rows else 0,
            "in_maxbits": _maxbits(x for r in rows for x in r)}


STATS = {
    "young_map.y_dq_columns": _y_dq_columns,
    "linalg.rank_sparse": _rank_sparse,
    "linalg.rank": _rank,
    "linalg.rref": _dense,
    "linalg.nullspace": _dense,
}


class Tracer:
    """Records one span per call of each wrapped function."""

    def __init__(self, clock=time.perf_counter):
        self.clock = clock
        self.spans = []
        self._stack = []
        self.overhead_s = 0.0

    def wrap(self, name, fn, stats=None):
        tracer, clock, spans, stack = self, self.clock, self.spans, self._stack

        def traced(*args, **kwargs):
            enter = clock()
            parent = stack[-1] if stack else -1
            span = [name, 0.0, 0.0, parent, 0.0, None]
            stack.append(len(spans))
            spans.append(span)
            start = clock()
            try:
                result = fn(*args, **kwargs)
            finally:
                end = clock()
                stack.pop()
                span[1], span[2] = start, end
            if stats is not None:
                span[5] = stats(args, result)
            own = (start - enter) + (clock() - end)
            tracer.overhead_s += own
            if parent >= 0:
                spans[parent][4] += own
            return result

        return traced

    @contextlib.contextmanager
    def installed(self):
        """Trace every function in TRACED while the block runs."""
        modules = [m for name, m in list(sys.modules.items())
                   if name == "liouville" or name.startswith("liouville.")]
        saved = []
        for mod, fns in TRACED.items():
            home = sys.modules["liouville." + mod]
            for fn in fns:
                original = getattr(home, fn)
                name = f"{mod}.{fn}"
                wrapper = self.wrap(name, original, STATS.get(name))
                for m in modules:
                    for attr, value in list(vars(m).items()):
                        if value is original:
                            saved.append((m, attr, original))
                            setattr(m, attr, wrapper)
        try:
            yield self
        finally:
            for m, attr, original in reversed(saved):
                setattr(m, attr, original)


def self_times(spans):
    """Span duration minus the time its child spans and the tracer's own
    bookkeeping inside it cover."""
    covered = [0.0] * len(spans)
    for _, start, end, parent, _, _ in spans:
        if parent >= 0:
            covered[parent] += end - start
    return [end - start - covered[i] - excluded
            for i, (_, start, end, _, excluded, _) in enumerate(spans)]


def layer_metrics(spans):
    """`<module>.<function>.<stat>` for one traced pass."""
    out = {}
    for fn in FUNCTIONS:
        out[fn + ".calls"] = 0
        out[fn + ".self_s"] = 0.0
    sums = {}
    for span, own in zip(spans, self_times(spans)):
        name, stats = span[0], span[5] or {}
        out[name + ".calls"] += 1
        out[name + ".self_s"] += own
        for key, value in stats.items():
            key = f"{name}.{key}"
            if key.endswith(".in_maxbits"):
                sums[key] = max(sums.get(key, 0), value)
            else:
                sums[key] = sums.get(key, 0) + value
    for fn, extra in EXTRA.items():
        for stat in extra:
            key = f"{fn}.{stat}"
            if stat == "rank_frac":
                cols = sums.get(fn + ".cols", 0)
                out[key] = sums.get(fn + ".rank", 0) / cols if cols else 0.0
            elif stat == "exact_frac":
                out[key] = _exact_frac(spans)
            else:
                out[key] = sums.get(key, 0)
    return out


def _exact_frac(spans):
    """Share of h1_entry calls that certified their row by exact rank."""
    entries = {i for i, s in enumerate(spans) if s[0] == "reconf.h1_entry"}
    exact = {s[3] for s in spans
             if s[0] == "young_map.kernel_cokernel_dims" and s[3] in entries}
    return len(exact) / len(entries) if entries else 0.0


def module_shares(metrics, pass_s):
    """Self time of each layer as a share of the traced pass."""
    shares = {}
    for fn in FUNCTIONS:
        mod = fn.split(".")[0]
        shares[mod] = shares.get(mod, 0.0) + metrics[fn + ".self_s"] / pass_s
    return shares
