"""Run the benchmark once per seed and report each metric's spread.

    python3 bench/spread.py --workload cli-mix --seeds 0-9

Runs `BENCHMARK.json`'s command with `--trace 0` sequentially, one seed
at a time, and prints for each end-to-end metric the median of the
per-seed values and the distance between their first and third quartiles
as a share of that median, next to the metric's bound, and the same for
the unscaled pass time from the `env` line, for context. Raw results go
to bench/out/.
"""

import argparse
import json
import statistics
import subprocess
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent


def seed_list(text):
    lo, _, hi = text.partition("-")
    return list(range(int(lo), int(hi or lo) + 1))


def main():
    p = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    p.add_argument("--workload", required=True)
    p.add_argument("--seeds", type=seed_list, default=seed_list("0-9"))
    args = p.parse_args()
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    bounds = {m["name"]: m.get("bound") for m in spec["end_to_end"]}
    out = ROOT / "bench" / "out"
    out.mkdir(exist_ok=True)
    results = []
    for seed in args.seeds:
        cmd = spec["command"] + [
            "--workload", args.workload, "--seed", str(seed),
            "--seconds", str(spec["run_seconds"]), "--trace", "0"]
        proc = subprocess.run(cmd, cwd=ROOT, capture_output=True, text=True,
                              timeout=180)
        if proc.returncode != 0:
            sys.exit(f"seed {seed} exited {proc.returncode}:\n{proc.stderr}")
        lines = proc.stdout.strip().splitlines()
        result = json.loads(lines[-1])
        env = json.loads(next(x for x in lines if x.startswith("env "))[4:])
        result["unscaled_wall_s"] = statistics.median(
            env["unscaled_s_per_pass"])
        results.append(result)
        values = {k: round(v["value"], 4) for k, v in result["metrics"].items()
                  if k in bounds}
        print(f"seed {seed}: correct={result['correct']} "
              f"failed={result['failed']}/{result['attempted']} {values}",
              flush=True)
    seeds = f"{args.seeds[0]}-{args.seeds[-1]}"
    name = f"{args.workload}-seeds{seeds}"
    (out / f"{name}.json").write_text(json.dumps(results, indent=1))
    print(f"{'metric':<40} {'median':>14} {'iqr/median':>11} {'bound':>6}")
    rows = {key: [r["metrics"][key]["value"] for r in results]
            for key in results[0]["metrics"]}
    rows["(unscaled wall_s)"] = [r["unscaled_wall_s"] for r in results]
    for key, values in rows.items():
        med = statistics.median(values)
        q1, _, q3 = statistics.quantiles(values, n=4)
        spread = (q3 - q1) / med if med else 0.0
        bound = bounds.get(key)
        print(f"{key:<40} {med:>14.6f} {spread:>11.4f} "
              f"{'' if bound is None else bound:>6}")


if __name__ == "__main__":
    main()
