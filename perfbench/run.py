#!/usr/bin/env python3
"""Build the perfbench harness and run one benchmark workload.

usage: python3 perfbench/run.py --workload NAME --seed N --seconds S
                                --trace 0|1 [--tiny]

Run from the root of a checkout. The harness (perfbench/*.cc plus the
simulator sources under src/) is configured and built with CMake in
$CARGO_TARGET_DIR/perfbench (default .bench_build/perfbench), then run
once for the workload. Metric names, units and directions come from
BENCHMARK.json: with --trace 0 the result holds every end_to_end
metric, with --trace 1 every per_layer metric. A human-readable table
goes first; the last line of stdout is the JSON result. The exit code
is 0 only when every correctness check passed.
"""

import argparse
import json
import math
import os
import subprocess
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
RUN_TIMEOUT_S = 175


def log(message):
    print(message, file=sys.stderr, flush=True)


def git_describe():
    if not os.path.isdir(os.path.join(ROOT, ".git")):
        return "unknown"
    try:
        out = subprocess.run(
            ["git", "describe", "--always", "--dirty", "--tags"],
            cwd=ROOT, capture_output=True, text=True, timeout=30)
    except (OSError, subprocess.SubprocessError):
        return "unknown"
    return out.stdout.strip() or "unknown"


def build():
    """Configure and build the harness; return its path (None on failure)."""
    if not os.path.isfile(os.path.join(ROOT, "src", "sim", "session.hh")):
        log("run.py: simulator sources (src/) not found next to perfbench/")
        return None
    target = os.environ.get("CARGO_TARGET_DIR", ".bench_build")
    build_dir = os.path.join(ROOT, target, "perfbench")
    jobs = str(min(4, os.cpu_count() or 1))
    steps = [
        ["cmake", "-S", HERE, "-B", build_dir, "-DCMAKE_BUILD_TYPE=Release"],
        ["cmake", "--build", build_dir, "-j", jobs],
    ]
    for step in steps:
        # Build chatter goes to stderr: stdout ends with the result line.
        if subprocess.run(step, cwd=ROOT, stdout=sys.stderr).returncode != 0:
            log("run.py: build step failed: " + " ".join(step))
            return None
    return os.path.join(build_dir, "palermo_perfbench")


def main():
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=int, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--tiny", action="store_true",
                        help="self-test sizes (see selftest.py)")
    args = parser.parse_args()

    with open(os.path.join(ROOT, "BENCHMARK.json")) as f:
        spec = json.load(f)
    if args.workload not in {w["name"] for w in spec["workloads"]}:
        log("run.py: unknown workload " + repr(args.workload))
        return 2
    wanted = spec["per_layer"] if args.trace else spec["end_to_end"]

    exe = build()
    if exe is None:
        return 1

    cmd = [exe, "--workload", args.workload, "--seed", str(args.seed),
           "--seconds", str(args.seconds)]
    if args.trace:
        cmd.append("--trace")
    if args.tiny:
        cmd.append("--tiny")
    try:
        proc = subprocess.run(cmd, cwd=ROOT, capture_output=True, text=True,
                              timeout=RUN_TIMEOUT_S)
    except subprocess.TimeoutExpired:
        log("run.py: workload exceeded %d s" % RUN_TIMEOUT_S)
        return 1
    sys.stderr.write(proc.stderr)
    try:
        doc = json.loads(proc.stdout)
    except ValueError:
        log("run.py: harness printed no result (exit %d)" % proc.returncode)
        return 1

    problems = list(doc["problems"])
    if proc.returncode != 0 and not problems:
        problems.append("harness exited with code %d" % proc.returncode)
    metrics = {}
    for metric in wanted:
        name = metric["name"]
        value = doc["metrics"].get(name)
        if value is None and not args.trace:
            problems.append("end-to-end metric %s missing" % name)
            continue
        # A per-layer metric the workload does not produce belongs to a
        # layer it does not exercise (service.* off the KV workload).
        value = 0.0 if value is None else float(value)
        if not math.isfinite(value):
            problems.append("metric %s is not finite" % name)
        elif not args.trace and value <= 0.0:
            problems.append("end-to-end metric %s is not positive" % name)
        metrics[name] = {"value": value, "unit": metric["unit"]}

    correct = not problems
    attempted = max(1, int(doc["attempted"]))
    failed = int(doc["failed"]) if correct else attempted

    print("perfbench %s seed=%d trace=%d iterations=%d" % (
        args.workload, args.seed, args.trace, doc["iterations"]))
    print("host: nproc=%d compiler=%s build=%s git=%s" % (
        os.cpu_count() or 0, doc["compiler"], doc["build_type"],
        git_describe()))
    for note in doc["notes"]:
        print("  " + note)
    for name, entry in metrics.items():
        print("  %-36s %16.6g %s" % (name, entry["value"], entry["unit"]))
    if not args.trace and "sim.latency_samples" in doc["metrics"]:
        print("  latency percentiles over %d requests" %
              doc["metrics"]["sim.latency_samples"])
    for problem in problems:
        print("  FAILED: " + problem)
    print(json.dumps({"correct": correct, "attempted": attempted,
                      "failed": failed, "metrics": metrics}))
    return 0 if correct else 1


if __name__ == "__main__":
    sys.exit(main())
