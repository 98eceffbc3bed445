#!/usr/bin/env python3
"""Repository benchmark: builds the benchmark binary from source, runs one
workload, and prints the result as the last line of stdout.

Usage (from the repository root):
  python3 perfbench/run.py --workload fleet_steady|fleet_churn|plan_sweep \\
      --seed N --seconds S --trace 0|1

--trace 0 prints the end-to-end metrics; --trace 1 prints the per-layer
metrics, writes the bench-side spans as a Chrome trace, checks it with
tools/validate_trace.py and adds each layer's self time computed from it.
The build goes to $CARGO_TARGET_DIR (default .bench_build) under the
current directory. A run whose correctness gates fail prints its result
with "correct": false and exits 0, so its figures stay visible; the script
exits nonzero without a result line when the build, the benchmark binary
or the trace check fails.
"""

import argparse
import json
import os
import subprocess
import sys

WORKLOADS = ("fleet_steady", "fleet_churn", "plan_sweep")
# Layers named by the span prefix before the first '.'; "bench" is the
# benchmark's own set-up and glue.
LAYERS = ("bench", "sim", "cluster", "serve", "store", "executor", "planner", "obs")
BENCH_DIR = os.path.dirname(os.path.abspath(__file__))
TIMEOUT_S = 170


def fail(message):
    print(f"perfbench: {message}", file=sys.stderr)
    sys.exit(1)


def build_dir():
    return os.path.join(os.path.abspath(os.environ.get("CARGO_TARGET_DIR", ".bench_build")),
                        "perfbench")


def build():
    """Configures and builds the binary; incremental after the first run."""
    out = build_dir()
    jobs = str(max(1, min(4, os.cpu_count() or 1)))
    steps = [
        ["cmake", "-S", BENCH_DIR, "-B", out, "-DCMAKE_BUILD_TYPE=Release"],
        ["cmake", "--build", out, "-j", jobs],
    ]
    for step in steps:
        done = subprocess.run(step, stdout=subprocess.PIPE, stderr=subprocess.STDOUT,
                              text=True, check=False)
        if done.returncode != 0:
            sys.stderr.write(done.stdout[-4000:])
            fail(f"build step failed: {' '.join(step)}")
    return os.path.join(out, "flo_perfbench")


def self_times_ms(trace_path):
    """Per-layer self time: each span's duration minus the part of it its
    child spans cover, summed by layer."""
    with open(trace_path, "r", encoding="utf-8") as handle:
        events = [e for e in json.load(handle)["traceEvents"] if e.get("ph") == "X"]
    by_id = {e["args"]["span"]: e for e in events}
    child_us = {}
    for event in events:
        parent = event["args"]["parent"]
        if parent in by_id:
            child_us[parent] = child_us.get(parent, 0.0) + event["dur"]
    totals = {layer: 0.0 for layer in LAYERS}
    for span_id, event in by_id.items():
        layer = event["name"].split(".", 1)[0]
        if layer not in totals:
            fail(f"span {event['name']!r} names no layer")
        totals[layer] += max(0.0, event["dur"] - child_us.get(span_id, 0.0)) / 1e3
    return totals


def main():
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=WORKLOADS)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args()

    binary = build()
    trace_path = os.path.join(build_dir(), f"trace-{args.workload}-{args.seed}.json")
    command = [binary, "--workload", args.workload, "--seed", str(args.seed),
               "--seconds", str(args.seconds), "--trace", str(args.trace)]
    if args.trace:
        command += ["--trace-out", trace_path]
    try:
        done = subprocess.run(command, stdout=subprocess.PIPE, text=True,
                              timeout=TIMEOUT_S, check=False)
    except subprocess.TimeoutExpired:
        fail(f"{args.workload} ran past {TIMEOUT_S} s")
    lines = done.stdout.strip().splitlines()
    if done.returncode != 0 or not lines:
        fail(f"{args.workload} exited with {done.returncode}")
    raw = json.loads(lines[-1])
    for line in lines[:-1]:
        print(line)

    metrics = raw["metrics"]
    if args.trace:
        check = subprocess.run([sys.executable, os.path.join("tools", "validate_trace.py"),
                                trace_path], stdout=subprocess.PIPE, stderr=subprocess.STDOUT,
                               text=True, check=False)
        print(check.stdout.strip())
        if check.returncode != 0:
            fail("the bench trace fails tools/validate_trace.py")
        for layer, ms in self_times_ms(trace_path).items():
            metrics[f"self_ms.{layer}"] = {"value": ms, "unit": "ms"}
    print(json.dumps(raw))


if __name__ == "__main__":
    main()
