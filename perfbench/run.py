"""Benchmark of cliffpoly: four workloads, end-to-end metrics, and a traced run for per-layer metrics.

    python3 perfbench/run.py --workload NAME --seed N --seconds S --trace 0
    python3 perfbench/run.py --workload NAME --seed N --seconds S --trace 1
    python3 perfbench/run.py --workload all --seconds S      # every workload, one table

Run it from the root of a checkout; it imports cliffpoly from ./src.
Every pass runs in a child interpreter (worker.py), so nothing is cached
between this script and the code it measures.  Workloads are closed
loops in one process with one thread:

    verify-m3     cold, a fresh process per pass: verify_report(3, 3, "all")
    basis-m5      cold, a fresh process per pass: three space_basis calls at m=5
    decompose-m3  warm stream of decompose requests through the CLI
    apply-m5      stream of apply requests through the CLI, and h_action requests

A cold workload starts processes until --seconds have passed (at least
three).  A stream workload runs three sessions of --seconds/3 each,
set-up included, and times at least 100 operations in all.  With --trace 0 the last line of standard output
carries the end-to-end metrics; with --trace 1 processes or passes
alternate untraced and traced and it carries the per-layer metrics.
Earlier lines give the sample counts, their spread and the machine.

The host's speed drifts, so every time in the end-to-end metrics is
scaled to a steady host speed by a probe kernel timed around it (see
hostspeed.py).  The unscaled medians are printed on the lines before.
Per-layer times are not scaled.
The exit code is 0 when a result was printed, 2 otherwise.
"""

from __future__ import annotations

import argparse
import json
import math
import os
import platform
import statistics
import subprocess
import sys
import time

from worker import STREAM_SESSIONS
from workloads import DEFAULT_SEED, WORKLOADS

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)

MIN_COLD_PASSES = 3
CHILD_TIMEOUT_S = 150


def metric_units(kind: str) -> dict:
    """Name -> unit of the end_to_end or per_layer metrics that BENCHMARK.json declares."""
    with open(os.path.join(ROOT, "BENCHMARK.json"), encoding="utf-8") as fh:
        return {m["name"]: m["unit"] for m in json.load(fh)[kind]}


class BenchError(Exception):
    """The benchmark could not produce a result."""


def spawn(workload: str, seed: int, trace: bool, budget: float, trace_file: str | None) -> dict:
    """Run one worker process to completion and return its result."""
    env = dict(os.environ, PYTHONHASHSEED="0")
    spawned_at = time.monotonic()
    cmd = [sys.executable, os.path.join(HERE, "worker.py"), "--workload", workload,
           "--seed", str(seed), "--spawned-at", repr(spawned_at), "--budget", repr(budget),
           "--trace", str(int(trace))]
    if trace_file:
        cmd += ["--trace-file", trace_file]
    try:
        proc = subprocess.run(cmd, cwd=ROOT, env=env, capture_output=True, text=True,
                              timeout=CHILD_TIMEOUT_S)
    except subprocess.TimeoutExpired:
        raise BenchError(f"{workload} worker exceeded {CHILD_TIMEOUT_S} s") from None
    lines = proc.stdout.strip().splitlines()
    if proc.returncode != 0 or not lines:
        raise BenchError(f"{workload} worker exited {proc.returncode}:\n{proc.stderr[-2000:]}")
    return json.loads(lines[-1])


def trace_path(workload: str, index: int) -> str:
    out = os.path.join(HERE, "out")
    os.makedirs(out, exist_ok=True)
    return os.path.join(out, f"trace-{workload}-{index}.jsonl")


def run_workload(workload: str, seed: int, seconds: float, trace: bool) -> list[dict]:
    """Every worker result of one run."""
    _, cold, _, _ = WORKLOADS[workload]
    results = []
    if cold:
        started, walls = time.monotonic(), []
        while True:
            traced = trace and len(results) % 2 == 1
            t0 = time.monotonic()
            path = trace_path(workload, len(results)) if traced else None
            results.append(spawn(workload, seed, traced, 0.0, path))
            walls.append(time.monotonic() - t0)
            needed = 2 * MIN_COLD_PASSES if trace else MIN_COLD_PASSES
            if len(results) >= needed and time.monotonic() - started + statistics.median(walls) > seconds:
                break
    else:
        for i in range(STREAM_SESSIONS):
            path = trace_path(workload, i) if trace else None
            results.append(spawn(workload, seed, trace, seconds / STREAM_SESSIONS, path))
    return results


def nearest_rank(sorted_values: list, q: float) -> float:
    return sorted_values[max(0, math.ceil(q * len(sorted_values)) - 1)]


def spread(values: list) -> float:
    """Interquartile range as a share of the median (0 with fewer than two values)."""
    if len(values) < 2:
        return 0.0
    q1, _, q3 = statistics.quantiles(values, n=4)
    return (q3 - q1) / statistics.median(values)


def summarize(workload: str, results: list[dict], trace: bool) -> tuple[dict, list[str]]:
    """Metrics of one run, plus notes on samples and spread."""
    untraced = [p for r in results for p in r["passes"] if not p["traced"]]
    traced = [p for r in results for p in r["passes"] if p["traced"]]
    scaled = [[ms * f for ms, f in zip(p["ops_ms"], p["speed"])] for p in untraced]
    pass_times = [sum(ops_ms) / 1e3 for ops_ms in scaled]
    latencies = sorted(ms for ops_ms in scaled for ms in ops_ms)
    setups = [r["setup_s"] * r["setup_speed"] for r in results]
    rss = [r["rss_mb"] for r in results]
    speeds = [f for p in untraced for f in p["speed"]]
    notes = [
        f"processes {len(results)}; untraced passes {len(untraced)}; traced passes {len(traced)}",
        f"host speed factor per operation: median {statistics.median(speeds):.3f}, "
        f"range {min(speeds):.3f}-{max(speeds):.3f}",
        f"unscaled medians: setup_s {statistics.median(r['setup_s'] for r in results):.4f}, "
        f"pass_s {statistics.median(p['seconds'] for p in untraced):.4f}",
        f"setup_s samples {len(setups)}, spread {spread(setups):.3f}",
        f"pass_s samples {len(pass_times)}, spread {spread(pass_times):.3f}",
        f"op latency samples {len(latencies)}; beyond p90: {len(latencies) - math.ceil(0.9 * len(latencies))}",
    ]
    if not trace:
        values = {
            "setup_s": statistics.median(setups),
            "pass_s": statistics.median(pass_times),
            "op_p50_ms": statistics.median(latencies),
            "op_p90_ms": nearest_rank(latencies, 0.9),
            "peak_rss_mb": statistics.median(rss),
        }
        units = metric_units("end_to_end")
    else:
        units = metric_units("per_layer")
        values = {}
        for name in units:
            samples = [p["layers"][name] for p in traced if name in p["layers"]]
            if samples:
                values[name] = statistics.median(samples)
        # traced passes run without the host-speed probe, so both sides are unscaled
        values["trace.overhead_ratio"] = (
            statistics.median(p["seconds"] for p in traced) / statistics.median(p["seconds"] for p in untraced))
        missing = sorted({m for r in results for m in r["missing"]})
        if missing:
            notes.append("trace targets not found: " + ", ".join(missing))
    absent = [name for name in units if name not in values]
    if absent:
        raise BenchError(f"{workload}: no value for {absent}")
    return {name: {"value": values[name], "unit": units[name]} for name in units}, notes


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=[*WORKLOADS, "all"])
    parser.add_argument("--seed", type=int, default=DEFAULT_SEED)
    parser.add_argument("--seconds", type=float, default=25.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)

    if not os.path.isfile(os.path.join(ROOT, "src", "cliffpoly", "__init__.py")):
        print(f"perfbench: no cliffpoly sources under {os.path.join(ROOT, 'src')}; "
              "run from the root of a cliffpoly checkout", file=sys.stderr)
        return 2
    print(f"# python {platform.python_version()} ({platform.python_implementation()}), "
          f"nproc {os.cpu_count()}, {platform.machine()}, seed {args.seed}, seconds {args.seconds}")

    names = list(WORKLOADS) if args.workload == "all" else [args.workload]
    attempted = failed = 0
    table = {}
    try:
        for workload in names:
            results = run_workload(workload, args.seed, args.seconds, bool(args.trace))
            metrics, notes = summarize(workload, results, bool(args.trace))
            a = sum(r["attempted"] for r in results)
            f = sum(r["failed"] for r in results)
            attempted, failed = attempted + a, failed + f
            for note in notes:
                print(f"# {workload}: {note}")
            for r in results:
                for failure in r["failures"]:
                    print(f"# {workload}: FAILED {failure}")
            for name, m in metrics.items():
                print(f"{workload:13s} {name:34s} {m['value']:14.6g} {m['unit']}")
            print(f"{workload:13s} {'fail_ratio':34s} {f / a:14.6g} ({f}/{a})")
            table.update(metrics if len(names) == 1 else
                         {f"{workload}.{name}": m for name, m in metrics.items()})
    except BenchError as exc:
        print(f"perfbench: {exc}", file=sys.stderr)
        return 2
    print(json.dumps({"correct": failed == 0, "attempted": attempted, "failed": failed, "metrics": table}))
    return 0


if __name__ == "__main__":
    sys.exit(main())
