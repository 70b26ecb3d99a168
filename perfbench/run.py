"""heisgeo benchmark: one workload run, untraced or traced.

    python3 perfbench/run.py --workload verify --seed 1 --seconds 20 --trace 0

Run from the root of a source checkout; heisgeo is imported from ``src/``.
An untraced run (``--trace 0``) times set-up in fresh interpreters, then
whole passes over seeded inputs until ``--seconds`` of timed work are done,
and reports medians over them.  Its times are scaled to a fixed machine
speed measured beside them (``speed.py``).  A traced run (``--trace 1``)
times a fixed number of passes untraced, then again with spans on every
layer, and reports the per-layer metrics.  Output checks run outside the timed section;
a failed check is a failed op.  The last stdout line is the result object;
the line before it is a record with the environment, typed failure counts
and per-class latencies.
"""

from __future__ import annotations

import argparse
import json
import os
import platform
import resource
import statistics
import subprocess
import sys
from array import array
from pathlib import Path
from time import perf_counter

import speed
import tracer

BENCH_DIR = Path(__file__).resolve().parent
ROOT = BENCH_DIR.parent
SRC = ROOT / "src"
OUT_DIR = BENCH_DIR / "out"
BLAS_VARS = ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS",
             "VECLIB_MAXIMUM_THREADS", "NUMEXPR_NUM_THREADS")
SETUP_PROBES = 11
PROBE_TIMEOUT_S = 60


def _parse(argv):
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--workload", required=True, choices=["verify", "pointwise", "identities"])
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, required=True)
    ap.add_argument("--trace", type=int, choices=[0, 1], default=0)
    ap.add_argument("--probe-setup", action="store_true",
                    help="internal: time import plus input generation once, print seconds")
    return ap.parse_args(argv)


def _probe_setup(workload, seed):
    t0 = perf_counter()
    import workloads

    wl = workloads.make(workload, str(OUT_DIR))
    wl.inputs(seed, 0)
    print(repr(perf_counter() - t0))


def _probe(cmd):
    """Run one probe interpreter and return the seconds it prints."""
    done = subprocess.run(cmd, capture_output=True, text=True, timeout=PROBE_TIMEOUT_S,
                          check=False)
    if done.returncode != 0:
        raise RuntimeError(f"probe {cmd[1:]} failed: {done.stderr.strip()}")
    return float(done.stdout.strip().splitlines()[-1])


def _setup_samples(workload, seed):
    """Raw and scaled set-up seconds of ``SETUP_PROBES`` fresh interpreters.

    Reference-import probes alternate with the set-up probes, and each
    set-up time is scaled by the mean of the reference times on its two
    sides.  The first pair only warms the file cache and is dropped.
    """
    setup_cmd = [sys.executable, str(Path(__file__).resolve()), "--workload", workload,
                 "--seed", str(seed), "--probe-setup", "--seconds", "0"]
    ref_cmd = [sys.executable, str(BENCH_DIR / "speed.py")]
    _probe(setup_cmd)
    refs = [_probe(ref_cmd)]
    raw = []
    for _ in range(SETUP_PROBES):
        raw.append(_probe(setup_cmd))
        refs.append(_probe(ref_cmd))
    scaled = [r * 2 * speed.REF_IMPORT_S / (refs[i] + refs[i + 1]) for i, r in enumerate(raw)]
    return scaled, raw, refs


def _environment(args):
    import numpy

    cpu = "unknown"
    try:
        with open("/proc/cpuinfo") as fh:
            cpu = next((ln.split(":", 1)[1].strip() for ln in fh
                        if ln.startswith("model name")), platform.processor() or "unknown")
    except OSError:
        pass
    return {
        "python": platform.python_version(),
        "numpy": numpy.__version__,
        "cpu_model": cpu,
        "nproc": len(os.sched_getaffinity(0)),
        "cpu_count": os.cpu_count(),
        "blas_threads": {v: os.environ.get(v) for v in BLAS_VARS},
        "commit": _commit(),
        "seed": args.seed,
        "workload": args.workload,
        "seconds": args.seconds,
        "trace": args.trace,
        "load": "closed loop, one client, sequential calls in one process",
    }


def _commit():
    """HEAD of the checkout when it is a git work tree, else "unknown"."""
    head = ROOT / ".git" / "HEAD"
    try:
        ref = head.read_text().strip()
        if ref.startswith("ref: "):
            return (ROOT / ".git" / ref[5:]).read_text().strip()
        return ref
    except OSError:
        return "unknown"


def _count_failures(failures):
    import workloads

    counts = dict.fromkeys(workloads.FAILURE_KINDS, 0)
    for kind, _ in failures:
        counts[kind] += 1
    return counts


def _class_stats(by_label):
    """Sample count and median latency (ms) of each input class."""
    return {label: {"n": len(v), "p50_ms": 1e3 * statistics.median(v),
                    "mean_ms": 1e3 * statistics.fmean(v)}
            for label, v in sorted(by_label.items())}


def _group(latencies, into):
    """Add ``(label, seconds)`` samples to a label -> array map."""
    for label, dt in latencies:
        into.setdefault(label, array("d")).append(dt)
    return into


def _untraced(args, wl):
    setup, setup_raw, setup_refs = _setup_samples(args.workload, args.seed)
    raw, failures = [], []   # raw: (start, wall, ops, latencies by label) per pass
    sampler = speed.Sampler()
    sampler.start()
    try:
        timed = 0.0
        while not raw or (timed < args.seconds and len(raw) != wl.max_passes):
            inputs = wl.inputs(args.seed, len(raw))
            res = wl.run(inputs, clock=sampler.clock)
            failures.extend(res.failures + wl.check(inputs, res))
            timed += res.wall
            raw.append((res.start, res.wall, res.ops, _group(res.latencies, {})))
            del inputs, res   # keep peak memory independent of the pass count
    finally:
        sampler.stop()
    peak_rss_mb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0
    factors = [sampler.factor(start, start + wall) for start, wall, _, _ in raw]
    walls = [wall * f for (_, wall, _, _), f in zip(raw, factors)]
    by_label = {}
    for (_, _, _, groups), f in zip(raw, factors):
        for label, samples in groups.items():
            by_label.setdefault(label, array("d")).extend(dt * f for dt in samples)
    latencies = [dt for v in by_label.values() for dt in v]
    metrics = {
        "wall_s": statistics.median(walls),
        "ops_per_s": statistics.median(ops / wall for (_, _, ops, _), wall in zip(raw, walls)),
        "op_p50_ms": 1e3 * tracer.quantile(latencies, 0.5),
        "op_p90_ms": 1e3 * tracer.quantile(latencies, 0.9),
        "peak_rss_mb": peak_rss_mb,
        "setup_s": statistics.median(setup),
    }
    info = {
        "passes": len(raw),
        "timed_s": timed,
        "op_samples": len(latencies),
        "pass_wall_s": walls,
        "pass_raw_wall_s": [wall for _, wall, _, _ in raw],
        "speed_samples": len(sampler.ratios),
        "speed_sample_s": sampler.spent,
        "setup_samples_s": setup,
        "setup_raw_samples_s": setup_raw,
        "setup_reference_s": setup_refs,
        "classes": _class_stats(by_label),
        **wl.summary(by_label),
    }
    return metrics, sum(ops for _, _, ops, _ in raw), failures, info


def _traced(args, wl):
    untraced_wall = 0.0
    untraced_ops = 0
    failures = []
    for k in range(wl.trace_passes):
        inputs = wl.inputs(args.seed, k)
        res = wl.run(inputs)
        failures.extend(res.failures + wl.check(inputs, res))
        untraced_wall += res.wall
        untraced_ops += res.ops
    tr = tracer.Tracer()
    tr.install()
    traced_ops = 0
    traced_wall = 0.0
    by_label = {}
    for k in range(wl.trace_passes):
        tr.current_op = tracer.SETUP
        inputs = wl.inputs(args.seed, k)
        res = wl.run(inputs, tracer=tr, first_id=traced_ops)
        tr.current_op = tracer.CHECK
        failures.extend(res.failures + wl.check(inputs, res))
        traced_ops += res.ops
        traced_wall += res.wall
        _group(res.latencies, by_label)
    import heisgeo.verify

    metrics = tr.metrics(traced_ops, traced_wall, untraced_wall, heisgeo.verify.REQUIRED_COVERAGE)
    OUT_DIR.mkdir(exist_ok=True)
    spans_path = OUT_DIR / f"spans-{args.workload}.jsonl"
    tr.dump(spans_path)
    info = {
        "passes": wl.trace_passes,
        "spans": len(tr.names),
        "spans_file": str(spans_path.relative_to(ROOT)),
        "mean_us_per_call": tr.mean_us(),
        "classes": _class_stats(by_label),
        **wl.summary(by_label),
    }
    return metrics, untraced_ops + traced_ops, failures, info


def main(argv=None):
    args = _parse(argv)
    if not (SRC / "heisgeo" / "__init__.py").is_file():
        print(f"error: no heisgeo sources under {SRC}", file=sys.stderr)
        return 2
    for var in BLAS_VARS:
        os.environ[var] = "1"
    sys.path.insert(0, str(SRC))
    if args.probe_setup:
        _probe_setup(args.workload, args.seed)
        return 0

    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    declared = spec["per_layer"] if args.trace else spec["end_to_end"]
    import heisgeo
    import workloads

    if Path(heisgeo.__file__).resolve().parent != (SRC / "heisgeo").resolve():
        print(f"error: heisgeo imported from {heisgeo.__file__}, not {SRC}", file=sys.stderr)
        return 2
    wl = workloads.make(args.workload, str(OUT_DIR))
    if args.trace:
        values, attempted, failures, info = _traced(args, wl)
    else:
        values, attempted, failures, info = _untraced(args, wl)
    names = [m["name"] for m in declared]
    if sorted(values) != sorted(names):
        print(f"error: metrics {sorted(set(values) ^ set(names))} disagree with BENCHMARK.json",
              file=sys.stderr)
        return 2
    record = {
        "env": _environment(args),
        "failures": _count_failures(failures),
        "failure_messages": [msg for _, msg in failures[:20]],
        **info,
    }
    print(json.dumps({"record": record}))
    result = {
        "correct": not failures,
        "attempted": attempted,
        "failed": min(len(failures), attempted),
        "metrics": {m["name"]: {"value": values[m["name"]], "unit": m["unit"]} for m in declared},
    }
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
