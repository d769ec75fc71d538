#!/usr/bin/env python3
"""Build and run the repository benchmark.

    python3 perfbench/run.py --workload halo|storm|dataenv|all
                             [--seed N] [--seconds S] [--trace 0|1]

Run from the repository root. The first run configures and builds the
runner (perfbench/runner.cpp against the impacc library in src/) under
.bench_build/perfbench; later runs only rebuild what changed. One workload
runs in one process; its last line of stdout is the runner's JSON result.
`--workload all` runs each workload in turn and ends with a table of the
end-to-end metrics and the error rate. Workloads, metrics and the
predictions they carry are described in perfbench/METRICS.md.
"""

import argparse
import json
import os
import subprocess
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
BUILD = os.path.join(ROOT, ".bench_build", "perfbench")
RUNNER = os.path.join(BUILD, "perfbench_runner")
WORKLOADS = ("halo", "storm", "dataenv")
DEFAULT_SEED = 1
RUNNER_TIMEOUT_S = 170


def build():
    """Configure (once) and build the runner; build output goes to stderr."""
    if not os.path.isfile(os.path.join(ROOT, "src", "impacc.h")):
        sys.exit("perfbench: no impacc sources at src/; run from a checkout")
    steps = []
    if not os.path.isfile(os.path.join(BUILD, "CMakeCache.txt")):
        steps.append(["cmake", "-S", HERE, "-B", BUILD,
                      "-DCMAKE_BUILD_TYPE=RelWithDebInfo"])
    jobs = str(max(1, min(4, os.cpu_count() or 1)))
    steps.append(["cmake", "--build", BUILD, "--target", "perfbench_runner",
                  "-j", jobs])
    for cmd in steps:
        done = subprocess.run(cmd, stdout=sys.stderr, stderr=sys.stderr,
                              timeout=800)
        if done.returncode != 0:
            sys.exit("perfbench: build step failed: " + " ".join(cmd))
    return RUNNER


def run_one(runner, workload, args, capture=False):
    cmd = [runner, "--workload", workload, "--seed", str(args.seed),
           "--seconds", str(args.seconds), "--trace", str(args.trace)]
    try:
        done = subprocess.run(cmd, timeout=RUNNER_TIMEOUT_S, text=True,
                              stdout=subprocess.PIPE if capture else None)
    except subprocess.TimeoutExpired:
        sys.exit("perfbench: %s did not finish in %d s"
                 % (workload, RUNNER_TIMEOUT_S))
    if done.returncode != 0:
        sys.exit("perfbench: runner exited with %d on %s"
                 % (done.returncode, workload))
    return done.stdout


def main():
    p = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    p.add_argument("--workload", required=True,
                   choices=WORKLOADS + ("all",))
    p.add_argument("--seed", type=int, default=DEFAULT_SEED)
    p.add_argument("--seconds", type=float, default=10)
    p.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = p.parse_args()

    runner = build()
    if args.workload != "all":
        run_one(runner, args.workload, args)
        return

    results = []
    for w in WORKLOADS:
        out = run_one(runner, w, args, capture=True)
        sys.stdout.write(out)
        results.append(json.loads(out.strip().splitlines()[-1]))
    print("%-30s" % "metric" + "".join("%18s" % w for w in WORKLOADS))
    for name, first in results[0]["metrics"].items():
        print("%-30s" % name + "".join(
            "%18s" % ("%.6g %s" % (r["metrics"][name]["value"], first["unit"]))
            for r in results))
    print("%-30s" % "error_rate" + "".join(
        "%18s" % ("%.3g ratio" % (r["failed"] / r["attempted"]))
        for r in results))


if __name__ == "__main__":
    main()
