"""Tests of the benchmark itself: generators, checker and span arithmetic.

    python3 -m pytest -q bench
"""

import gc
import json
import shutil
import signal
import subprocess
import sys
import time
from pathlib import Path

import pytest

import checks
import speed
import tracing
import workloads

ROOT = Path(__file__).resolve().parent.parent
sys.path.insert(0, str(ROOT / "src"))

from liouville import cli, linalg, polyspaces, young_map  # noqa: E402


class Lv:
    """The layer namespace `workloads.execute` expects."""
    cli, polyspaces, young_map = cli, polyspaces, young_map


# ---------------------------------------------------------------------------
# Seeded generators
# ---------------------------------------------------------------------------

@pytest.mark.parametrize("workload", sorted(workloads.WORKLOADS))
def test_same_seed_same_ops_other_seed_other_ops(workload):
    ops, warmup = workloads.generate(workload, 3)
    assert (ops, warmup) == workloads.generate(workload, 3)
    assert ops != workloads.generate(workload, 4)[0]


def test_cli_mix_shape():
    ops, _ = workloads.cli_mix(0)
    assert 140 <= len(ops) <= 160
    assert {op["fmt"] for op in ops} == {"json", "tsv", "pretty"}
    for op in ops:
        if op["cmd"] in ("reconf", "continuity"):
            ns = op["args"].get("n_range", [op["args"].get("n")])
            assert all(op["args"]["dmax"] <= workloads.EXACT_RANGE[n]
                       for n in ns if n != 2)


def test_seeded_q_keeps_the_standard_zero_pattern():
    ops = workloads.ydq_certify(5)[0] + workloads.so_structure(5)[0][0]["ops"]
    for op in ops:
        if "q" in op:
            assert len(op["q"]) == op["n"] and all(op["q"])


# ---------------------------------------------------------------------------
# Closed forms and the checker
# ---------------------------------------------------------------------------

def test_closed_forms_match_known_values():
    # values printed by the package at the commit the benchmark was defined
    assert checks.ydq_dims(4, 5) == (0, 168)
    assert checks.ydq_dims(6, 5) == (0, 2268)
    assert checks.ydq_dims(7, 4) == (0, 2436)
    assert checks.ydq_dims(2, 6) == (2, 0)
    assert [checks.ck_dim(5, d) for d in range(4)] == [5, 11, 5, 0]
    assert checks.bott([0, 0, -3, 1]) == (1, [0, 0, 0, -2])
    assert checks.gl_dim([0, 0, 0, -2]) == 10


@pytest.mark.parametrize("op,wrong", [
    ({"kind": "ydq", "n": 4, "d": 5, "q": [1, 1, 1, 1]}, (0, 167)),
    ({"kind": "ydq", "n": 2, "d": 6, "q": [1, 1]}, (0, 0)),
    ({"kind": "ck", "n": 5, "dmax": 1, "q": [1] * 5},
     [[None] * 5, [None] * 10]),
    ({"kind": "so", "n": 5}, {"n": 5, "dimension": 20}),
    ({"kind": "seq", "ops": [{"kind": "ydq", "n": 3, "d": 3, "q": [1] * 3}]},
     [(0, 4)]),
    ({"kind": "seq", "ops": [{"kind": "ydq", "n": 3, "d": 3, "q": [1] * 3}]},
     []),
])
def test_checker_catches_planted_wrong_answer(op, wrong):
    with pytest.raises(checks.Mismatch):
        checks.check(op, wrong)


def test_checker_catches_wrong_cli_output():
    op = workloads._cli("reconf", n=3, dmax=4, indexing="source")
    good = json.dumps(dict(checks.cli_payload("reconf", op["args"]),
                           schema_version=1), separators=(",", ":"))
    checks.check(op, (0, good))
    wrong = good.replace('"h1":5', '"h1":6')
    assert wrong != good
    with pytest.raises(checks.Mismatch):
        checks.check(op, (0, wrong))
    with pytest.raises(checks.Mismatch):
        checks.check(op, (2, good))
    with pytest.raises(checks.Mismatch):
        checks.check(op, (0, "not json"))


CHEAP = [
    ("bott", {"weight": [0, 0, -3, 1]}), ("bott", {"weight": [-2, 1, 0]}),
    ("sheaf", {"n": 4, "d": 3, "b": 1}), ("sheaf", {"n": 4, "d": 2, "b": 1}),
    ("cech", {"n": 2, "box": 2}), ("ydq", {"n": 3, "d": 2, "oracle": True}),
    ("ydq", {"n": 2, "d": 3, "oracle": False}),
    ("killing", {"n": 3, "d": 1}), ("killing", {"n": 3, "d": 3}),
    ("reconf", {"n": 3, "dmax": 4, "indexing": "bundle"}),
    ("continuity", {"n_range": [2, 3], "dmax": 4}),
]


@pytest.mark.parametrize("fmt", ["json", "tsv", "pretty"])
@pytest.mark.parametrize("cmd,args", CHEAP)
def test_checker_accepts_the_package_in_every_format(cmd, args, fmt):
    op = dict(workloads._cli(cmd, **args), fmt=fmt)
    checks.check(op, workloads.execute(Lv, op, workloads.argv(op)))


# ---------------------------------------------------------------------------
# Scaling to reference speed
# ---------------------------------------------------------------------------

def test_scale_uses_the_reference_jobs_near_the_interval():
    meter = speed.Speedometer()
    ref = speed.REFERENCE_S
    meter.samples = ([(0.5 * k, ref / 2) for k in range(20)]
                     + [(100 + 0.5 * k, 2 * ref) for k in range(20)])
    # a fast stretch doubles the speed, a slow one halves it
    assert meter.scale((2.0, 0.0), (3.0, 0.0), 1.0) == pytest.approx(2.0)
    assert meter.scale((104.0, 0.0), (105.0, 0.0), 1.0) == pytest.approx(0.5)
    # the handler's time inside the interval is not the program's
    assert meter.scale((2.0, 1.0), (3.0, 1.25), 1.0) == pytest.approx(1.5)
    # far from every job: the NEAREST nearest jobs, all from the slow stretch
    assert meter.scale((200.0, 0.0), (201.0, 0.0), 1.0) == pytest.approx(0.5)


def test_timer_runs_jobs_and_restores_the_handler_and_the_gc():
    previous = signal.getsignal(signal.SIGALRM)
    with speed.Speedometer(tick=0.02) as meter:
        first = meter.mark()
        while time.perf_counter() - first[0] < 0.3:
            pass
        last = meter.mark()
    assert len(meter.samples) >= 3
    assert 0 < meter.own(first, last) < last[0] - first[0]
    assert signal.getitimer(signal.ITIMER_REAL) == (0.0, 0.0)
    assert signal.getsignal(signal.SIGALRM) is previous
    assert gc.isenabled()
    with speed.Speedometer(tick=0) as meter:
        assert meter.mark()[1] == 0.0
    assert not meter.samples


# ---------------------------------------------------------------------------
# Spans and self time
# ---------------------------------------------------------------------------

def test_self_time_on_a_synthetic_span_tree():
    #  a [0, 10] with bookkeeping 0.5 inside it
    #  +- b [1, 4]
    #  |  +- c [2, 3]
    #  +- b [5, 9]
    spans = [["m.a", 0.0, 10.0, -1, 0.5, None],
             ["m.b", 1.0, 4.0, 0, 0.0, None],
             ["m.c", 2.0, 3.0, 1, 0.0, None],
             ["m.b", 5.0, 9.0, 0, 0.0, None]]
    assert tracing.self_times(spans) == [2.5, 2.0, 1.0, 4.0]


def test_tracer_nesting_with_a_fake_clock():
    ticks = iter(range(100))
    tracer = tracing.Tracer(clock=lambda: float(next(ticks)))
    inner = tracer.wrap("m.inner", lambda: None)
    outer = tracer.wrap("m.outer", lambda: inner())
    outer()
    # clock reads: outer enter 0, start 1; inner enter 2, start 3, end 4,
    # bookkeeping 5; outer end 6, bookkeeping 7. Inner's reads 2 and 5 are
    # charged to neither span; all four bookkeeping intervals are overhead.
    assert tracer.spans == [["m.outer", 1.0, 6.0, -1, 2.0, None],
                            ["m.inner", 3.0, 4.0, 0, 0.0, None]]
    assert tracing.self_times(tracer.spans) == [2.0, 1.0]
    assert tracer.overhead_s == 4.0


def test_y_dq_columns_counts_come_from_the_columns_built():
    cols = [{0: 1, 3: 2}, {3: 1, 5: 1}]
    assert tracing.STATS["young_map.y_dq_columns"]((3, 3), (cols, None)) == \
        {"rows": 3, "cols": 2, "nnz": 4}


def test_installed_patches_every_binding_and_restores_them():
    originals = (young_map.monomials, polyspaces.monomials, linalg.rank_sparse)
    tracer = tracing.Tracer()
    with tracer.installed():
        assert young_map.monomials is polyspaces.monomials
        assert young_map.monomials is not originals[0]
        assert young_map.kernel_cokernel_dims(3, 3) == (0, 5)
    assert (young_map.monomials, polyspaces.monomials,
            linalg.rank_sparse) == originals
    metrics = tracing.layer_metrics(tracer.spans)
    assert metrics["young_map.kernel_cokernel_dims.calls"] == 1
    assert metrics["young_map.y_dq.calls"] == 10
    assert metrics["linalg.rank_sparse.cols"] == 10
    assert metrics["linalg.rank_sparse.rank_frac"] == 1.0
    assert metrics["polyspaces.monomials.calls"] >= 2


def test_metric_names_match_benchmark_json():
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    assert [(m["name"], m["unit"]) for m in spec["per_layer"]] == \
        tracing.METRICS
    spans = []
    assert set(tracing.layer_metrics(spans)) | {
        n for n, _ in tracing.PASS_METRICS} == {n for n, _ in tracing.METRICS}


def test_refuses_to_run_without_the_package(tmp_path):
    shutil.copy(ROOT / "BENCHMARK.json", tmp_path)
    shutil.copytree(ROOT / "bench", tmp_path / "bench",
                    ignore=shutil.ignore_patterns("out", "__pycache__"))
    proc = subprocess.run(
        [sys.executable, "bench/run.py", "--workload", "cli-mix",
         "--seed", "0", "--seconds", "1", "--trace", "0"],
        cwd=tmp_path, capture_output=True, text=True, timeout=60)
    assert proc.returncode != 0
    assert '"correct"' not in proc.stdout
