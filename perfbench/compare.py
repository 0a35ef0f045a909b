#!/usr/bin/env python3
"""Compare two sets of perfbench runs, workload by workload.

    python3 perfbench/compare.py BASE CHANGE [--benchmark BENCHMARK.json]

BASE and CHANGE are files, or directories of files, holding the standard
output of perfbench/run.py runs (any number of runs per file; other lines are
ignored).  For every (workload, metric) pair present in both sets it prints
each set's median and quartiles, the change of the medians, and a verdict
against the metric's bound from BENCHMARK.json:

  better      the change wins at least 9 in 10 of the runs paired in order
              (every run, if the sets differ in size, beats the base
              median), and its median improves by more than the spread of
              the base's own runs (interquartile range / median);
  no worse    the change's median is not worse by more than the bound;
  worse       the change's median is worse by more than the bound;
  unresolved  a set's spread exceeds the bound and the runs do not
              separate (every change run beyond every base run).

Per-layer metrics have no bound: they get medians and quartiles only.  The
stamps of each set (git SHA, source digest, CPU, nproc) are printed first;
sets from different machines are flagged.
"""
import argparse
import json
import os
import statistics
import sys


def load(path):
    files = []
    if os.path.isdir(path):
        for d, _, names in sorted(os.walk(path)):
            files += [os.path.join(d, n) for n in sorted(names)]
    else:
        files = [path]
    runs = []
    for f in files:
        with open(f, errors="replace") as fh:
            for line in fh:
                line = line.strip()
                if line.startswith('{"perfbench":'):
                    runs.append(json.loads(line)["perfbench"])
    return runs


def quartiles(v):
    if len(v) < 2:
        return v[0], v[0]
    q = statistics.quantiles(v, n=4)
    return q[0], q[2]


def spread(v):
    med = statistics.median(v)
    q1, q3 = quartiles(v)
    return (q3 - q1) / abs(med) if med else float("inf")


def verdict(a, b, better, bound):
    sign = 1.0 if better == "higher" else -1.0
    ma, mb = statistics.median(a), statistics.median(b)
    gain = sign * (mb - ma) / abs(ma) if ma else 0.0  # > 0: improved
    if bound is None:
        return gain, "-"
    beats = lambda x, y: sign * (x - y) > 0
    all_better = all(beats(y, x) for x in a for y in b)
    all_worse = all(beats(x, y) for x in a for y in b)
    if max(spread(a), spread(b)) > bound:
        if all_better:
            return gain, "better"
        if all_worse and -gain > bound:
            return gain, "worse"
        return gain, "unresolved"
    if -gain > bound:
        return gain, "worse"
    if len(a) == len(b):
        wins = sum(beats(y, x) for x, y in zip(a, b)) / len(a)
    else:
        wins = sum(beats(y, ma) for y in b) / len(b)
    if wins >= 0.9 and gain > spread(a):
        return gain, "better"
    return gain, "no worse"


def stamps(runs):
    keys = ("git_sha", "source_digest", "cpu_model", "nproc", "build_type",
            "compiler")
    out = {}
    for k in keys:
        out[k] = sorted({str(r.get("stamp", {}).get(k)) for r in runs})
    return out


def main():
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("base")
    ap.add_argument("change")
    ap.add_argument("--benchmark", default=os.path.join(
        os.path.dirname(os.path.dirname(os.path.abspath(__file__))),
        "BENCHMARK.json"))
    args = ap.parse_args()

    with open(args.benchmark) as fh:
        spec = json.load(fh)
    meta = {m["name"]: m for m in spec["end_to_end"] + spec["per_layer"]}
    base, change = load(args.base), load(args.change)
    if not base or not change:
        sys.stderr.write("no perfbench runs found in %s\n" %
                         (args.base if not base else args.change))
        return 1

    sa, sc = stamps(base), stamps(change)
    for k in sa:
        print("%-14s base %s | change %s" % (k, ", ".join(sa[k]),
                                             ", ".join(sc[k])))
    if sa["cpu_model"] != sc["cpu_model"] or sa["nproc"] != sc["nproc"]:
        print("WARNING: the sets come from different machines")
    print()

    def series(runs):
        out = {}
        for r in runs:
            for name, m in r["metrics"].items():
                out.setdefault((r["workload"], name), []).append(m["value"])
        return out

    va, vc = series(base), series(change)
    print("%-13s %-36s %-9s %5s %27s %27s %8s  %s" % (
        "workload", "metric", "unit", "runs", "base median [q1, q3]",
        "change median [q1, q3]", "gain", "verdict"))
    worse = 0
    for key in sorted(set(va) & set(vc)):
        wl, name = key
        m = meta.get(name, {"unit": "?", "better": "lower"})
        a, b = va[key], vc[key]
        gain, v = verdict(a, b, m["better"], m.get("bound"))
        worse += v == "worse"
        fa = "%.4g [%.4g, %.4g]" % ((statistics.median(a),) + quartiles(a))
        fb = "%.4g [%.4g, %.4g]" % ((statistics.median(b),) + quartiles(b))
        print("%-13s %-36s %-9s %2d/%-2d %27s %27s %+7.1f%%  %s" % (
            wl, name, m["unit"], len(a), len(b), fa, fb, 100 * gain, v))
    return 1 if worse else 0


if __name__ == "__main__":
    sys.exit(main())
