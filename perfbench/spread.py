"""Median and spread of the end-to-end metrics over runs with different seeds.

    python3 perfbench/spread.py --workload pointwise --seeds 1 2 3 4 5

Runs ``run.py`` once per seed (sequentially, untraced), then prints each
metric's median, first and third quartile, and the quartile spread as a
share of the median next to the metric's bound in BENCHMARK.json.  With
``--trace`` it instead makes two traced runs of the first seed and reports
whether the exact counters repeat.
"""

from __future__ import annotations

import argparse
import json
import statistics
import subprocess
import sys
from pathlib import Path

BENCH_DIR = Path(__file__).resolve().parent
ROOT = BENCH_DIR.parent
EXACT_COUNTERS = ("rk45.rhs_evals", "rk45.accepted_steps", "surface.evaluate.per_op")


def run_once(workload, seed, seconds, trace):
    cmd = [sys.executable, str(BENCH_DIR / "run.py"), "--workload", workload,
           "--seed", str(seed), "--seconds", str(seconds), "--trace", str(int(trace))]
    done = subprocess.run(cmd, cwd=ROOT, capture_output=True, text=True, timeout=900,
                          check=False)
    if done.returncode != 0:
        raise SystemExit(f"run failed ({done.returncode}): {done.stderr.strip()}")
    lines = done.stdout.strip().splitlines()
    return json.loads(lines[-2])["record"], json.loads(lines[-1])


def main(argv=None):
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--workload", required=True)
    ap.add_argument("--seeds", type=int, nargs="+", default=list(range(1, 11)))
    ap.add_argument("--trace", action="store_true")
    args = ap.parse_args(argv)
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())

    if args.trace:
        runs = [run_once(args.workload, args.seeds[0], spec["run_seconds"], True)[1]
                for _ in range(2)]
        for name in EXACT_COUNTERS:
            a, b = (r["metrics"][name]["value"] for r in runs)
            print(f"{name:28s} {a!r:>14} {b!r:>14} {'same' if a == b else 'DIFFERENT'}")
        return 0

    values = {}
    for seed in args.seeds:
        record, result = run_once(args.workload, seed, spec["run_seconds"], False)
        print(f"seed {seed}: correct={result['correct']} attempted={result['attempted']} "
              f"failed={result['failed']} passes={record['passes']}", flush=True)
        for name, metric in result["metrics"].items():
            values.setdefault(name, []).append(metric["value"])
    print(f"{'metric':14s} {'median':>12s} {'q1':>12s} {'q3':>12s} {'spread':>8s} {'bound':>6s}")
    worst = 0.0
    for m in spec["end_to_end"]:
        vals = values[m["name"]]
        med = statistics.median(vals)
        q1, _, q3 = statistics.quantiles(vals, n=4)
        share = (q3 - q1) / med
        worst = max(worst, share / m["bound"])
        print(f"{m['name']:14s} {med:12.6g} {q1:12.6g} {q3:12.6g} {share:8.4f} {m['bound']:6.3f}")
    print(f"largest spread / bound: {worst:.3f}")
    return 0


if __name__ == "__main__":
    sys.exit(main())
