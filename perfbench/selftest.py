#!/usr/bin/env python3
"""Self-test of the benchmark at tiny sizes (a minute or two).

usage: python3 perfbench/selftest.py

For every workload in BENCHMARK.json, on a main seed and a held-out
second seed, in untraced and traced mode, it checks that run.py exits 0
with a correct result in which every named metric is present and finite
(end-to-end metrics also positive). The traced runs pass only if they
reproduce the untraced runs' simulated counts exactly. It also checks
that simulated metrics repeat bit for bit between two runs of one seed,
that every per-layer metric is produced by some workload, and that the
service spans are nonzero on the KV workload and absent elsewhere.
"""

import json
import math
import os
import subprocess
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
SEEDS = (1, 2)  # A main seed and a second seed.

# Metrics of the simulated machine: deterministic for a given seed.
SIM_METRICS = {
    "req_per_kcycle", "p50_latency_cycles", "p99_latency_cycles",
    "sim.cycles", "sim.idle_cycles", "sim.latency_samples",
    "service.queue_wait_p99_cycles", "service.queue_high_watermark",
    "service.rejected", "service.slo_rate_per_kcycle",
    "controller.sync_fraction", "controller.dummy_ratio",
    "controller.stash_max", "mem.reads_per_req", "mem.writes_per_req",
    "mem.row_hit_rate", "mem.bw_utilization",
    "mem.avg_read_latency_cycles", "mem.avg_outstanding",
}
SERVICE_SPANS = ("service.build_s", "service.offer_s", "service.step_s",
                 "service.drain_s", "service.snapshot_s", "security.gate_s")

failures = []


def check(condition, message):
    if not condition:
        failures.append(message)
        print("FAIL: " + message, flush=True)


def run(workload, seed, trace):
    """run.py result line for one tiny run (None when it printed none)."""
    proc = subprocess.run(
        [sys.executable, os.path.join(HERE, "run.py"), "--workload",
         workload, "--seed", str(seed), "--seconds", "0", "--trace",
         str(trace), "--tiny"],
        cwd=ROOT, capture_output=True, text=True)
    tag = "%s seed=%d trace=%d" % (workload, seed, trace)
    check(proc.returncode == 0, tag + ": exit code %d\n%s" % (
        proc.returncode, proc.stdout + proc.stderr))
    try:
        return json.loads(proc.stdout.strip().splitlines()[-1])
    except (ValueError, IndexError):
        check(False, tag + ": no result line")
        return None


def raw_metrics(workload, seed):
    """Metrics the traced harness itself produced (before run.py fills)."""
    target = os.environ.get("CARGO_TARGET_DIR", ".bench_build")
    exe = os.path.join(ROOT, target, "perfbench", "palermo_perfbench")
    proc = subprocess.run(
        [exe, "--workload", workload, "--seed", str(seed), "--seconds", "0",
         "--trace", "--tiny"], cwd=ROOT, capture_output=True, text=True)
    return json.loads(proc.stdout)["metrics"]


def main():
    with open(os.path.join(ROOT, "BENCHMARK.json")) as f:
        spec = json.load(f)
    names = {0: [m["name"] for m in spec["end_to_end"]],
             1: [m["name"] for m in spec["per_layer"]]}
    produced = set()

    for workload in [w["name"] for w in spec["workloads"]]:
        for trace in (0, 1):
            results = {seed: run(workload, seed, trace) for seed in SEEDS}
            repeat = run(workload, SEEDS[0], trace)
            for seed, result in results.items():
                if result is None:
                    continue
                tag = "%s seed=%d trace=%d" % (workload, seed, trace)
                check(result["correct"] and result["failed"] == 0,
                      tag + ": not correct")
                check(result["attempted"] >= 1, tag + ": nothing attempted")
                for name in names[trace]:
                    entry = result["metrics"].get(name)
                    check(entry is not None, tag + ": missing " + name)
                    if entry is None:
                        continue
                    check(math.isfinite(entry["value"]),
                          tag + ": %s not finite" % name)
                    if trace == 0:
                        check(entry["value"] > 0,
                              tag + ": %s not positive" % name)
            first = results[SEEDS[0]]
            if first is not None and repeat is not None:
                for name in SIM_METRICS & set(names[trace]):
                    check(first["metrics"][name] == repeat["metrics"][name],
                          "%s trace=%d: %s differs between two runs of "
                          "one seed" % (workload, trace, name))

        raw = raw_metrics(workload, SEEDS[0])
        produced |= set(raw)
        for name in SERVICE_SPANS:
            if workload == "kv-openloop-mix":
                check(raw.get(name, 0) > 0,
                      "%s: span %s should be nonzero" % (workload, name))
            else:
                check(name not in raw,
                      "%s: span %s should be absent" % (workload, name))

    for name in names[1]:
        check(name in produced, "per-layer %s produced by no workload" % name)

    print("selftest: %s" % ("FAILED (%d)" % len(failures) if failures
                            else "passed"))
    return 1 if failures else 0


if __name__ == "__main__":
    sys.exit(main())
