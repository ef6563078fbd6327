"""The traced benchmark run looks up each public function it wraps by
name, so a rename in the package must show up here, not as a crash of
`bench/run.py --trace 1`; and its per-layer counts are only as good as
the hot path's calls through those names."""

import importlib
import importlib.util
from pathlib import Path

import pytest

TRACING = Path(__file__).resolve().parents[1] / "bench" / "tracing.py"


def load_tracing():
    spec = importlib.util.spec_from_file_location("bench_tracing", TRACING)
    mod = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(mod)
    return mod


tracing = load_tracing()
TRACED = tracing.TRACED


@pytest.mark.parametrize("module", sorted(TRACED))
def test_every_traced_name_resolves(module):
    mod = importlib.import_module(f"liouville.{module}")
    missing = [fn for fn in TRACED[module]
               if not callable(getattr(mod, fn, None))]
    assert not missing, f"liouville.{module} lacks {missing}"


def test_every_column_goes_through_traced_y_dq():
    # the traced run charges the closed form's work (no projector runs on
    # this path) to y_dq only if the column builder calls it once per
    # column of S^3 (10 at n = 3)
    for module in TRACED:
        importlib.import_module(f"liouville.{module}")
    from liouville import young_map
    tracer = tracing.Tracer()
    with tracer.installed():
        young_map.y_dq_columns(3, 3)
    assert tracing.layer_metrics(tracer.spans)["young_map.y_dq.calls"] == 10


def test_killing_kernel_traces_one_nullspace():
    # the traced nullspace stat reads the row keys of ck_columns as
    # numbers, so a column builder keyed by exponent tuples fails here;
    # nullspace reads the column echelon itself, so no rref runs inside it
    for module in TRACED:
        importlib.import_module(f"liouville.{module}")
    from liouville import killing
    tracer = tracing.Tracer()
    with tracer.installed():
        basis = killing.ck_kernel(3, 2)
    assert len(basis) == 3
    metrics = tracing.layer_metrics(tracer.spans)
    assert metrics["linalg.nullspace.calls"] == 1
    assert metrics["linalg.rref.calls"] == 0


def test_structure_constants_reach_linalg_through_one_solve(monkeypatch):
    # the structure-constant table (_solve) takes all its coordinates off
    # one linalg.solve, which the trace does not wrap, and runs no rref
    for module in TRACED:
        importlib.import_module(f"liouville.{module}")
    from liouville import killing, linalg
    solves, solve = [], linalg.solve
    monkeypatch.setattr(linalg, "solve",
                        lambda *args: solves.append(args) or solve(*args))
    tracer = tracing.Tracer()
    with tracer.installed():
        killing.structure_constants(killing.named_conformal_basis(3))
    assert len(solves) == 1
    assert tracing.layer_metrics(tracer.spans)["linalg.rref.calls"] == 0


@pytest.mark.parametrize("n, calls", [(3, 33), (4, 66), (5, 115), (6, 183)])
def test_so_identification_brackets_only_p_and_k1(n, calls):
    # the traced so-structure pass reads the bracket's cost off
    # killing.bracket, so so_np2_isomorphism must call it by its module
    # name once per pair that holds P_1..P_n or K_1, C(dim, 2) -
    # C(dim - n - 1, 2), and once per depth-2 bracket: [K1, [P_i, K1]]
    # for i >= 2 and [[P_i, K1], [P_j, K1]] for 2 <= i < j
    for module in TRACED:
        importlib.import_module(f"liouville.{module}")
    from liouville import killing
    tracer = tracing.Tracer()
    with tracer.installed():
        killing.so_np2_isomorphism(n)
    assert tracing.layer_metrics(tracer.spans)["killing.bracket.calls"] \
        == calls


def test_so_identification_traces_three_ranks_and_no_solve():
    # one rank of the so(5) images, one of the graph with the brackets
    # (closure), one of the vectors built from P_1..P_n and K_1
    # (generation); a passing certificate solves nothing, builds neither
    # structure-constant table and runs no Jacobi check
    for module in TRACED:
        importlib.import_module(f"liouville.{module}")
    from liouville import killing
    tracer = tracing.Tracer()
    with tracer.installed():
        killing.so_np2_isomorphism(3)
    metrics = tracing.layer_metrics(tracer.spans)
    assert metrics["linalg.rank_sparse.calls"] == 3
    assert metrics["linalg.rref.calls"] == 0
    assert metrics["killing.check_jacobi.calls"] == 0
    assert metrics["killing.structure_constants.calls"] == 0
    assert metrics["killing.so_structure_constants.calls"] == 0
