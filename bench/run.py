"""liouville benchmark: one workload and one seed, in one process.

    python3 bench/run.py --workload ydq-certify --seed 0 --seconds 40 --trace 0

Builds the workload's ops from the seed and runs whole passes over them
for about --seconds, checking every result against its closed form.
Between ops, about every SETUP_SPACING_S seconds, it sets up afresh
(import, input generation, one warm-up op) SETUP_REPEATS times. With
--trace 0 a timer runs the reference job of speed.py during the run, and
every end-to-end time is scaled to reference speed by the jobs within
SPEED_WINDOW_S seconds of it; it prints the end-to-end metrics. With
--trace 1 it alternates untraced and traced passes, with no timer, and
prints the per-layer metrics.
The last line of standard output is one JSON object. The package is
imported from this checkout's src/ and nowhere else.
"""

import argparse
import importlib
import json
import os
import platform
import resource
import statistics
import sys
import time
import types
from pathlib import Path

import checks
import speed
import tracing
import workloads

BENCH = Path(__file__).resolve().parent
ROOT = BENCH.parent
SRC = ROOT / "src"
LAYERS = ["cli", "reconf", "young_map", "killing", "cech", "bott", "weights",
          "polyspaces", "linalg"]
SETUP_REPEATS = 3
SETUP_SPACING_S = 1.5
SPEED_WINDOW_S = 1.0
MIN_PASSES = 2

END_TO_END = [("wall_s", "s"), ("op_p50_ms", "ms"), ("op_p90_ms", "ms"),
              ("peak_rss_mb", "MB"), ("setup_s", "s")]


def import_package():
    """Import every layer afresh, so each set-up pays for the import."""
    for name in [m for m in sys.modules
                 if m == "liouville" or m.startswith("liouville.")]:
        del sys.modules[name]
    lv = types.SimpleNamespace(
        **{name: importlib.import_module("liouville." + name)
           for name in LAYERS})
    if Path(lv.cli.__file__).resolve().parent != SRC / "liouville":
        raise ImportError(f"liouville imported from {lv.cli.__file__}")
    return lv


class Run:
    """Ops attempted and failed, with the first few failure messages."""

    def __init__(self):
        self.attempted = 0
        self.failures = []

    def record(self, op, result, error):
        self.attempted += 1
        if error is None:
            try:
                checks.check(op, result)
                return
            except Exception as e:  # a malformed output is a failed op
                error = f"{type(e).__name__}: {e}"
        self.failures.append(error)
        if len(self.failures) <= 5:
            print(f"FAILED {json.dumps(op)}: {error}", file=sys.stderr)


def set_up(workload, seed, run, mark):
    first = mark()
    lv = import_package()
    ops, warmup = workloads.generate(workload, seed)
    prepared = [workloads.prepare(lv, op) for op in ops]
    result, error = call(lv, warmup, workloads.prepare(lv, warmup))
    last = mark()
    run.record(warmup, result, error)
    return (first, last), lv, ops, prepared


class SetUps:
    """Set-ups spread evenly over the run, between ops: SETUP_REPEATS in a
    row about every SETUP_SPACING_S seconds. The latest set-up's package
    and inputs are the ones the next pass runs on."""

    def __init__(self, workload, seed, run, mark):
        self.workload, self.seed, self.run = workload, seed, run
        self.mark = mark
        self.intervals = []
        self.next_at = 0.0

    def maybe(self):
        if time.perf_counter() < self.next_at:
            return
        for _ in range(SETUP_REPEATS):
            interval, self.lv, self.ops, self.prepared = set_up(
                self.workload, self.seed, self.run, self.mark)
            self.intervals.append(interval)
        self.next_at = time.perf_counter() + SETUP_SPACING_S


def call(lv, op, prepared):
    try:
        return workloads.execute(lv, op, prepared), None
    except Exception as e:  # an op that raises counts as failed
        return None, f"{type(e).__name__}: {e}"


def one_pass(lv, ops, prepared, mark, between):
    """Run every op once, calling `between` after each: (seconds, cpu
    seconds, the marks before and after each op, results) of the ops
    alone."""
    intervals, results, cpu = [], [], 0.0
    for op, inp in zip(ops, prepared):
        cpu0, first = os.times(), mark()
        results.append(call(lv, op, inp))
        intervals.append((first, mark()))
        cpu1 = os.times()
        cpu += (cpu1.user - cpu0.user) + (cpu1.system - cpu0.system)
        between()
    return (sum(speed.Speedometer.own(*i) for i in intervals), cpu,
            intervals, results)


def git_commit():
    head = ROOT / ".git" / "HEAD"
    try:
        ref = head.read_text().strip()
        if not ref.startswith("ref: "):
            return ref
        ref = ref[5:]
        path = ROOT / ".git" / ref
        if path.exists():
            return path.read_text().strip()
        for line in (ROOT / ".git" / "packed-refs").read_text().splitlines():
            if line.endswith(" " + ref):
                return line.split()[0]
    except OSError:
        pass
    return "unknown"


class Passes:
    """What the passes of one run measured."""

    def __init__(self):
        self.plain, self.traced = [], []  # seconds of each pass
        self.intervals = []  # marks around each op of each untraced pass
        self.cpu, self.overheads, self.layer = [], [], []
        self.spans = None  # of the last traced pass


def run_passes(args, run, meter, setups, start):
    """Whole passes until one more would end after --seconds."""
    p, reference = Passes(), None
    while True:
        lv, ops, prepared = setups.lv, setups.ops, setups.prepared
        use_trace = args.trace and len(p.plain) > len(p.traced)
        if use_trace:
            tracer = tracing.Tracer()
            with tracer.installed():
                elapsed, pass_cpu, _, results = one_pass(
                    lv, ops, prepared, meter.mark, setups.maybe)
            p.traced.append(elapsed)
            p.overheads.append(tracer.overhead_s)
            p.spans = tracer.spans
            p.layer.append(tracing.layer_metrics(tracer.spans))
        else:
            elapsed, pass_cpu, intervals, results = one_pass(
                lv, ops, prepared, meter.mark, setups.maybe)
            p.plain.append(elapsed)
            p.intervals.append(intervals)
        p.cpu.append(pass_cpu)
        for i, (op, (result, error)) in enumerate(zip(ops, results)):
            if use_trace and error is None and result != reference[i]:
                error = "traced result differs from the untraced result"
            run.record(op, result, error)
        if reference is None:
            reference = [result for result, _ in results]
        done = time.perf_counter() - start
        passes = p.plain + p.traced
        if (len(passes) >= MIN_PASSES
                and done + statistics.median(passes) > args.seconds):
            return p


def measure(args):
    run = Run()
    start = time.perf_counter()
    # no timer in a traced run: its jobs would land in the spans' self time
    meter = speed.Speedometer(tick=0 if args.trace else speed.TICK_S)
    with meter:
        setups = SetUps(args.workload, args.seed, run, meter.mark)
        setups.maybe()
        p = run_passes(args, run, meter, setups, start)
    ops = setups.ops

    env = {"workload": args.workload, "seed": args.seed,
           "nproc": os.cpu_count(), "python": platform.python_version(),
           "commit": git_commit(),
           "LIOUVILLE_THREADS": os.environ.get("LIOUVILLE_THREADS"),
           "passes": len(p.plain), "traced_passes": len(p.traced),
           "ops_per_pass": len(ops),
           "cpu_s_per_pass": [round(c, 4) for c in p.cpu],
           "unscaled_s_per_pass": [round(t, 4) for t in p.plain + p.traced],
           "reference_jobs": len(meter.samples)}
    print("env " + json.dumps(env, sort_keys=True))

    if args.trace:
        metrics = {k: statistics.median(m[k] for m in p.layer)
                   for k in p.layer[0]}
        metrics["trace.wall_s"] = statistics.median(p.traced)
        metrics["trace.overhead_s"] = statistics.median(p.overheads)
        units = dict(tracing.METRICS)
        write_spans(args, p.spans)
        for mod, share in sorted(tracing.module_shares(
                metrics, metrics["trace.wall_s"]).items()):
            print(f"self share {mod:<12} {share:8.2%} of the traced pass")
    else:
        def scaled(interval):
            return meter.scale(*interval, SPEED_WINDOW_S)

        scaled_passes = [[scaled(i) for i in ops_of_pass]
                         for ops_of_pass in p.intervals]
        # one latency per op: its median over the untraced passes
        op_s = [statistics.median(lat) for lat in zip(*scaled_passes)]
        metrics = {
            "wall_s": statistics.median(sum(p) for p in scaled_passes),
            "op_p50_ms": 1000 * statistics.median(op_s),
            "op_p90_ms": 1000 * statistics.quantiles(
                op_s, n=10, method="inclusive")[8],
            "peak_rss_mb":
                resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024,
            "setup_s": statistics.median(
                scaled(i) for i in setups.intervals),
        }
        units = dict(END_TO_END)
        print(f"times are at reference speed ({speed.REFERENCE_S} s per "
              f"reference job; {len(meter.samples)} jobs, mean "
              f"{statistics.mean(r for _, r in meter.samples):.6f} s); "
              f"wall_s is the median of {len(p.plain)} passes (unscaled "
              f"median {statistics.median(p.plain):.4f} s); op percentiles "
              f"are over "
              f"the {len(ops)} ops' median latencies; setup_s is the median "
              f"of {len(setups.intervals)} set-ups")
    for name, value in metrics.items():
        print(f"{name:<44} {value:>16.6f} {units[name]}")
    print(f"fail_frac {len(run.failures)}/{run.attempted}")
    print(json.dumps({
        "correct": not run.failures,
        "attempted": run.attempted,
        "failed": len(run.failures),
        "metrics": {k: {"value": v, "unit": units[k]}
                    for k, v in metrics.items()},
    }))


def write_spans(args, spans):
    """The last traced pass's spans, one JSON array per line."""
    out = BENCH / "out"
    out.mkdir(exist_ok=True)
    path = out / f"{args.workload}-seed{args.seed}.spans.jsonl"
    with open(path, "w") as f:
        for (name, start, end, parent, _, _), own in zip(
                spans, tracing.self_times(spans)):
            f.write(json.dumps([name, start, end, parent, own]) + "\n")
    print(f"spans: {len(spans)} written to {path.relative_to(ROOT)}")


def main():
    p = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    p.add_argument("--workload", required=True,
                   choices=sorted(workloads.WORKLOADS))
    p.add_argument("--seed", type=int, required=True)
    p.add_argument("--seconds", type=float, required=True)
    p.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = p.parse_args()
    if not (SRC / "liouville" / "__init__.py").is_file():
        sys.exit(f"error: no package source at {SRC / 'liouville'}")
    sys.path.insert(0, str(SRC))
    measure(args)


if __name__ == "__main__":
    main()
