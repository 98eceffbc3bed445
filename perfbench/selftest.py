#!/usr/bin/env python3
"""Self-test of the repository benchmark, on the benchmarked workloads with
--seconds 0 (the minimum number of repetitions or rounds).

For every workload: two traced runs with the same seed must print the same
output digest and the same deterministic per-layer counters, an untraced
run with that seed must print the same digest (tracing does not perturb
the simulation), and a run with another seed must print another digest.
Every run must also pass its correctness gates; a run that fails them is
reported and the determinism checks still run.

Usage (from the repository root): python3 perfbench/selftest.py
Exits nonzero if any check failed. Takes about four minutes on 4 cores.
"""

import json
import os
import subprocess
import sys

RUN = os.path.join(os.path.dirname(os.path.abspath(__file__)), "run.py")
# Units of the per-layer metrics that are deterministic functions of the
# inputs: counts, ratios of counts, and simulated times. Host-time probes
# and memory readings vary from run to run and are not compared.
DETERMINISTIC_UNITS = {"count", "ratio", "sim_ms"}


def run(workload, seed, trace, failures):
    command = [sys.executable, RUN, "--workload", workload, "--seed", str(seed),
               "--seconds", "0", "--trace", str(trace)]
    done = subprocess.run(command, stdout=subprocess.PIPE, stderr=subprocess.DEVNULL,
                          text=True, check=False)
    lines = done.stdout.strip().splitlines()
    if done.returncode != 0 or not lines:
        sys.exit(f"FAIL: {workload} seed {seed} --trace {trace} exited {done.returncode}")
    result = json.loads(lines[-1])
    digest = next(line.split()[1] for line in lines if line.startswith("digest "))
    if not result["correct"] or result["failed"] != 0:
        failures.append(f"seed {seed} --trace {trace} failed its correctness gates")
    return digest, result["metrics"]


def counters(metrics):
    return {name: metric["value"] for name, metric in metrics.items()
            if metric["unit"] in DETERMINISTIC_UNITS}


def main():
    passed = True
    for workload in ("fleet_steady", "fleet_churn", "plan_sweep"):
        failures = []
        digest_a, metrics_a = run(workload, 1, 1, failures)
        digest_b, metrics_b = run(workload, 1, 1, failures)
        untraced, _ = run(workload, 1, 0, failures)
        other, _ = run(workload, 2, 0, failures)
        checks = [
            (digest_a == digest_b, "same seed, different digests"),
            (counters(metrics_a) == counters(metrics_b), "same seed, different counters"),
            (digest_a == untraced, "the traced digest differs from the untraced one"),
            (digest_a != other, "another seed gave the same digest"),
        ]
        failures += [what for ok, what in checks if not ok]
        for what in failures:
            print(f"FAIL: {workload}: {what}")
        if failures:
            passed = False
        else:
            print(f"{workload}: ok (digest {digest_a}, {len(counters(metrics_a))} counters)")
    if not passed:
        sys.exit("selftest failed")
    print("selftest passed")


if __name__ == "__main__":
    main()
