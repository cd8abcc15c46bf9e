#!/usr/bin/env python3
"""Runs the repository benchmark.

    python3 perfbench/run.py --workload <name> --seed <n> --seconds <s> --trace <0|1>

Builds the perfbench harness (and the Newtop library it links) from the
checkout into .bench_build/perfbench, then runs one workload. The last
line of standard output is one JSON object: {"correct", "attempted",
"failed", "metrics"}; with --trace 0 the metrics are the end-to-end ones,
with --trace 1 the per-layer ones. See perfbench/README.md.

Set-up is measured several times per run: the harness is started
SETUP_REPEATS times in set-up-only mode (each a fresh process, so every
set-up starts cold) and once for the measured run; setup_s is the median.
"""

import argparse
import json
import os
import statistics
import subprocess
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
BUILD = os.path.join(ROOT, ".bench_build", "perfbench")
BINARY = os.path.join(BUILD, "perfbench")
TRACE_DIR = os.path.join(ROOT, ".bench_build", "traces")

SETUP_REPEATS = 4
BUILD_TIMEOUT_S = 840
SETUP_TIMEOUT_S = 10
RUN_TIMEOUT_S = 120


def log(msg):
    print(f"run.py: {msg}", file=sys.stderr, flush=True)


def build():
    """Configures (once) and builds the harness; False on failure."""
    steps = []
    if not os.path.exists(os.path.join(BUILD, "CMakeCache.txt")):
        steps.append(["cmake", "-S", HERE, "-B", BUILD,
                      "-DCMAKE_BUILD_TYPE=Release"])
    steps.append(["cmake", "--build", BUILD, "--target", "perfbench",
                  "-j", "4"])
    for cmd in steps:
        try:
            proc = subprocess.run(cmd, cwd=ROOT, stdout=subprocess.PIPE,
                                  stderr=subprocess.STDOUT, text=True,
                                  timeout=BUILD_TIMEOUT_S)
        except (OSError, subprocess.TimeoutExpired) as e:
            log(f"build step failed: {' '.join(cmd)}: {e}")
            return False
        if proc.returncode != 0:
            sys.stderr.write(proc.stdout[-4000:])
            log(f"build step failed: {' '.join(cmd)}")
            return False
    return os.path.exists(BINARY)


def last_json(stdout):
    for line in reversed(stdout.strip().splitlines()):
        line = line.strip()
        if line.startswith("{"):
            return json.loads(line)
    raise ValueError("no JSON line in harness output")


def run_harness(args, timeout):
    """Runs the binary; returns its last JSON line or None."""
    try:
        proc = subprocess.run([BINARY] + args, cwd=ROOT,
                              stdout=subprocess.PIPE, stderr=subprocess.PIPE,
                              text=True, timeout=timeout)
    except subprocess.TimeoutExpired:
        log(f"harness timed out after {timeout} s: {' '.join(args)}")
        return None
    sys.stderr.write(proc.stderr)
    if proc.returncode != 0:
        log(f"harness exited with {proc.returncode}: {' '.join(args)}")
        return None
    try:
        return last_json(proc.stdout)
    except ValueError as e:
        log(str(e))
        return None


def main():
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--workload", required=True)
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, required=True)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    a = ap.parse_args()

    if not build():
        return 2
    os.makedirs(TRACE_DIR, exist_ok=True)
    common = ["--workload", a.workload, "--seed", str(a.seed),
              "--seconds", str(a.seconds)]

    setups = []
    if not a.trace:
        for i in range(SETUP_REPEATS):
            out = run_harness(common + ["--trace", "0", "--setup-only"],
                              SETUP_TIMEOUT_S)
            if out is None or not out.get("setup_s", 0) > 0:
                log(f"set-up run {i} failed")
                return 1
            setups.append(float(out["setup_s"]))

    result = run_harness(common + ["--trace", str(a.trace),
                                   "--trace-dir", TRACE_DIR],
                         RUN_TIMEOUT_S)
    if result is None:
        return 1
    if not a.trace:
        setups.append(result["metrics"]["setup_s"]["value"])
        result["metrics"]["setup_s"]["value"] = statistics.median(setups)
        log("setup_s samples: " + ", ".join(f"{s:.6f}" for s in setups))
    print(json.dumps(result), flush=True)
    return 0


if __name__ == "__main__":
    sys.exit(main())
