#!/usr/bin/env python3
"""Layered host-time benchmark for the flexicores libraries.

    python3 perfbench/run.py --workload wafer_lot --seed 1 --seconds 30 --trace 0

Builds perfbench/ (and the libraries it links from src/) in Release
mode into $CARGO_TARGET_DIR (default .bench_build) under the checkout
root, runs one workload, checks its outputs and prints one JSON object
as the last stdout line:

    {"correct": ..., "attempted": ..., "failed": ..., "metrics": {...}}

--trace 0 reports the end-to-end metrics of BENCHMARK.json, --trace 1
the per-layer ones. Every metric is also printed by name with its unit
on a line of its own before the JSON. Without --workload, every
workload runs in turn (no JSON line; a human-readable report only).
See perfbench/README.md.
"""

import argparse
import json
import os
import statistics
import subprocess
import sys
import time

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
WORKLOADS = ("wafer_lot", "fleet_field", "formal_lint")
# Set-up runs in separate processes (process-lifetime caches start
# cold in each); setup_s is the median of these plus the main run's.
SETUP_SAMPLES = 5
TIMEOUT_S = 170


def spec():
    with open(os.path.join(ROOT, "BENCHMARK.json")) as f:
        return json.load(f)


def fail(msg):
    print("run.py: " + msg, file=sys.stderr)
    sys.exit(1)


def build():
    if not os.path.isfile(os.path.join(ROOT, "src", "CMakeLists.txt")):
        fail("no flexicores sources (src/) next to perfbench/")
    out = os.path.join(ROOT, os.environ.get("CARGO_TARGET_DIR", ".bench_build"))
    log = sys.stderr
    if not os.path.isfile(os.path.join(out, "CMakeCache.txt")):
        r = subprocess.run(["cmake", "-S", HERE, "-B", out,
                            "-DCMAKE_BUILD_TYPE=Release"],
                           stdout=log, stderr=log)
        if r.returncode:
            fail("cmake configure failed")
    jobs = str(min(4, len(os.sched_getaffinity(0))))
    r = subprocess.run(["cmake", "--build", out, "--target", "flexibench",
                        "-j", jobs], stdout=log, stderr=log)
    if r.returncode:
        fail("build failed")
    return out


def invoke(binary, args, deadline):
    left = deadline - time.monotonic()
    if left <= 0:
        fail("out of time")
    r = subprocess.run([binary] + args, stdout=subprocess.PIPE,
                       stderr=sys.stderr, text=True, timeout=left)
    lines = r.stdout.strip().splitlines()
    if r.returncode or not lines:
        fail("flexibench %s exited %d" % (" ".join(args), r.returncode))
    return json.loads(lines[-1])


def commit():
    try:
        r = subprocess.run(["git", "-C", ROOT, "rev-parse", "HEAD"],
                           stdout=subprocess.PIPE,
                           stderr=subprocess.DEVNULL, text=True)
        return r.stdout.strip() or "unknown"
    except OSError:
        return "unknown"


def run_workload(binary, workdir, workload, seed, seconds, trace):
    nproc = len(os.sched_getaffinity(0))
    threads = min(nproc, 4)
    deadline = time.monotonic() + TIMEOUT_S
    common = ["--workload", workload, "--seed", str(seed),
              "--threads", str(threads), "--workdir", workdir]
    setups = []
    if not trace:
        for _ in range(SETUP_SAMPLES - 1):
            setups.append(invoke(binary, common + ["--seconds", "1",
                                                   "--setup-only"],
                                 deadline)["setup_s"])
    raw = invoke(binary, common + ["--seconds", str(seconds),
                                   "--trace", "1" if trace else "0"],
                 deadline)
    setups.append(raw["setup_s"])
    print("# workload=%s seed=%d commit=%s nproc=%d threads=%d "
          "compiler=%s flags=%s" % (workload, seed, commit(), nproc,
                                    threads, raw["compiler"],
                                    raw["cxx_flags"].strip()))
    s = spec()
    metrics = {}
    if trace:
        for m in s["per_layer"]:
            metrics[m["name"]] = {"value": raw["layer:" + m["name"]],
                                  "unit": m["unit"]}
    else:
        raw["setup_s"] = statistics.median(setups)
        for m in s["end_to_end"]:
            metrics[m["name"]] = {"value": raw[m["name"]],
                                  "unit": m["unit"]}
        print("error_rate %.6g ratio (%d of %d units failed)"
              % (raw["error_rate"], raw["failed"], raw["attempted"]))
    for name, m in metrics.items():
        print("%s %.6g %s" % (name, m["value"], m["unit"]))
    attempted = int(raw["attempted"])
    failed = int(raw["failed"])
    return {"correct": failed == 0 and attempted > 0,
            "attempted": attempted, "failed": failed, "metrics": metrics}


def main():
    ap = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    ap.add_argument("--workload", choices=WORKLOADS)
    ap.add_argument("--seed", type=int, default=1)
    ap.add_argument("--seconds", type=float, default=30)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    a = ap.parse_args()
    if a.seed < 0 or a.seconds <= 0:
        ap.error("--seed must be >= 0 and --seconds > 0")

    out = build()
    binary = os.path.join(out, "flexibench")
    workdir = os.path.join(out, "work")
    os.makedirs(workdir, exist_ok=True)
    if a.workload:
        result = run_workload(binary, workdir, a.workload, a.seed,
                              a.seconds, a.trace)
        print(json.dumps(result))
    else:
        for w in WORKLOADS:
            result = run_workload(binary, workdir, w, a.seed, a.seconds,
                                  a.trace)
            print("# %s correct=%s" % (w, result["correct"]))


if __name__ == "__main__":
    main()
