#!/usr/bin/env python3
"""Build the ObjectBase library and the benchmark, then run one workload.

    python3 perfbench/run.py --workload bank-spread --seed 1 --seconds 10 --trace 0
    python3 perfbench/run.py --selftest

Run from the root of a checkout.  The build goes to $CARGO_TARGET_DIR (or
.bench_build) under the checkout; each run's logs go to a private directory
below it that the run removes.

One run is PROCESSES benchmark processes in a row, each measuring an equal
share of --seconds on the same inputs.  A process's speed in this virtual
machine depends on the host over stretches of seconds (how fast it wakes a
sleeping vCPU, whether it preempts a client holding a latch), so a metric
over processes is steadier than one longer process.  Throughput and the
tail latency, which such stretches move most and only ever make worse, take
the best process (BEST_OF); every other metric takes the median.

The second-to-last line of standard output ({"perfbench": ...}) holds the
combined run with its stamps and each process's metrics, for
perfbench/compare.py; the last line is the run's JSON result.  Build output
goes to standard error.  The exit code is non-zero when the build fails, a
check fails or the run's metrics do not match BENCHMARK.json.
"""
import argparse
import hashlib
import json
import os
import statistics
import subprocess
import sys
import time

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
RUN_TIMEOUT_S = 170
PROCESSES = 3
BEST_OF = {"commit_tput": max, "txn_p95_us": min}


def build_dir():
    d = os.environ.get("CARGO_TARGET_DIR") or ".bench_build"
    if not os.path.isabs(d):
        d = os.path.join(ROOT, d)
    return os.path.join(d, "perfbench")


def build(out):
    jobs = str(os.cpu_count() or 1)
    steps = [
        ["cmake", "-S", HERE, "-B", out, "-DCMAKE_BUILD_TYPE=Release"],
        ["cmake", "--build", out, "-j", jobs, "--target", "perfbench",
         "perfbench_selftest"],
    ]
    for cmd in steps:
        if subprocess.run(cmd, stdout=sys.stderr, stderr=sys.stderr).returncode:
            sys.stderr.write("perfbench: build failed: %s\n" % " ".join(cmd))
            return False
    return True


def git_sha():
    try:
        r = subprocess.run(["git", "-C", ROOT, "rev-parse", "HEAD"],
                           capture_output=True, text=True, timeout=10)
        return r.stdout.strip() if r.returncode == 0 else "none"
    except (OSError, subprocess.SubprocessError):
        return "none"


def source_digest():
    """SHA-256 over the library and benchmark sources (checkouts without
    git history still get a stamp that tells two trees apart)."""
    h = hashlib.sha256()
    for top in ("src", "perfbench"):
        for d, dirs, files in sorted(os.walk(os.path.join(ROOT, top))):
            dirs.sort()
            for f in sorted(files):
                p = os.path.join(d, f)
                h.update(os.path.relpath(p, ROOT).encode())
                with open(p, "rb") as fh:
                    h.update(fh.read())
    return h.hexdigest()[:16]


def expected_metrics(trace):
    path = os.path.join(ROOT, "BENCHMARK.json")
    with open(path) as fh:
        spec = json.load(fh)
    return [m["name"] for m in spec["per_layer" if trace else "end_to_end"]]


def main():
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--workload")
    ap.add_argument("--seed", type=int, default=1)
    ap.add_argument("--seconds", type=float, default=10)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    ap.add_argument("--selftest", action="store_true")
    args = ap.parse_args()
    if not args.selftest and not args.workload:
        ap.error("--workload is required")

    out = build_dir()
    if not build(out):
        return 1
    scratch = os.path.join(os.path.dirname(out), "runs")
    if args.selftest:
        cmd = [os.path.join(out, "perfbench_selftest"), "--scratch", scratch]
        return subprocess.run(cmd, timeout=RUN_TIMEOUT_S).returncode

    cmd = [os.path.join(out, "perfbench"),
           "--workload", args.workload, "--seed", str(args.seed),
           "--seconds", repr(args.seconds / PROCESSES),
           "--trace", str(args.trace), "--scratch", scratch,
           "--sha", git_sha(), "--digest", source_digest()]
    deadline = time.monotonic() + RUN_TIMEOUT_S
    runs = []
    for _ in range(PROCESSES):
        try:
            r = subprocess.run(cmd, stdout=subprocess.PIPE, text=True,
                               timeout=max(1.0, deadline - time.monotonic()))
        except subprocess.TimeoutExpired:
            sys.stderr.write("perfbench: run exceeded %d s\n" % RUN_TIMEOUT_S)
            return 1
        lines = r.stdout.strip().splitlines()
        if len(lines) < 2 or not lines[-2].startswith('{"perfbench":'):
            sys.stderr.write(r.stdout)
            sys.stderr.write("perfbench: process exited %d without a result\n"
                             % r.returncode)
            return r.returncode or 1
        runs.append(json.loads(lines[-2])["perfbench"])
        if r.returncode != 0:
            break  # a check failed: report it, do not run on
    combined = combine(runs, args.seconds)
    result = {k: combined[k] for k in ("correct", "attempted", "failed",
                                       "metrics")}
    print(json.dumps({"perfbench": combined}))
    print(json.dumps(result))
    sys.stdout.flush()
    if not combined["correct"]:
        return 1
    want = expected_metrics(args.trace == 1)
    if sorted(result["metrics"]) != sorted(want):
        sys.stderr.write("perfbench: metrics differ from BENCHMARK.json\n")
        return 1
    return 0


def combine(runs, seconds):
    """One run from its processes: counts add up, metrics are the best or
    the median over the processes, details the median; each process's
    figures are kept."""
    first = runs[0]
    med = statistics.median
    metrics = {}
    for name, m in first["metrics"].items():
        vals = [r["metrics"][name]["value"] for r in runs]
        metrics[name] = {"value": BEST_OF.get(name, med)(vals),
                         "unit": m["unit"]}
    info = {k: med([r["info"].get(k, 0) for r in runs])
            for k in first["info"]}
    samples = {k: sum(r["samples"].get(k, 0) for r in runs)
               for k in first["samples"]}
    return {
        "workload": first["workload"], "seed": first["seed"],
        "seconds": seconds, "trace": first["trace"],
        "clients": first["clients"], "processes": len(runs),
        "correct": all(r["correct"] for r in runs),
        "failures": [f for r in runs for f in r["failures"]],
        "attempted": sum(r["attempted"] for r in runs),
        "failed": sum(r["failed"] for r in runs),
        "stamp": first["stamp"], "samples": samples, "info": info,
        "metrics": metrics,
        "process_runs": [{"stamp": r["stamp"], "metrics": {
            k: v["value"] for k, v in r["metrics"].items()}} for r in runs],
    }


if __name__ == "__main__":
    sys.exit(main())
