#!/usr/bin/env python3
"""Diffs a fresh google-benchmark JSON against the committed one.

    python3 bench/diff_bench.py COMMITTED FRESH

Both files are google-benchmark JSON as bench/run_benches.sh writes
them. Each benchmark is read as one time per run name: the median
aggregate when the file has repetitions, else the mean of its plain
iteration rows. Rows present on both sides print as

    <name>  <committed>  <fresh>  <fresh/committed>  [WORSE]

in the committed file's row order, with WORSE on every row whose fresh
time is more than THRESHOLD (10%) above the committed one.
Rows on one side only are listed after the table.

The script only reports: it exits 0 whatever it finds (and 2 on
unreadable input). The two files usually come from different hosts or
load, so a flagged row is a prompt to re-measure on one host, not a
verdict.
"""

import argparse
import json
import sys

THRESHOLD = 0.10
UNIT_NS = {"ns": 1.0, "us": 1e3, "ms": 1e6, "s": 1e9}


def load_times(path):
    """Returns {run name: real time in ns}, in first-appearance order."""
    with open(path, encoding="utf-8") as f:
        rows = json.load(f).get("benchmarks", [])
    medians = {}
    iterations = {}
    for row in rows:
        name = row.get("run_name", row.get("name"))
        if "real_time" not in row or name is None:
            continue
        ns = row["real_time"] * UNIT_NS.get(row.get("time_unit", "ns"), 1.0)
        if row.get("run_type") == "aggregate":
            if row.get("aggregate_name") == "median":
                medians[name] = ns
        else:
            iterations.setdefault(name, []).append(ns)
    times = {}
    for name in list(iterations) + list(medians):
        if name in medians:
            times[name] = medians[name]
        else:
            samples = iterations[name]
            times[name] = sum(samples) / len(samples)
    return times


def format_ns(ns):
    for unit, scale in (("s", 1e9), ("ms", 1e6), ("us", 1e3)):
        if ns >= scale:
            return "%.3g %s" % (ns / scale, unit)
    return "%.3g ns" % ns


def main():
    parser = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    parser.add_argument("committed")
    parser.add_argument("fresh")
    args = parser.parse_args()
    try:
        committed = load_times(args.committed)
        fresh = load_times(args.fresh)
    except (OSError, ValueError) as e:
        print("diff_bench.py: %s" % e, file=sys.stderr)
        return 2

    common = [name for name in committed if name in fresh]
    width = max([len(name) for name in common] + [9])
    print("%-*s  %10s  %10s  %7s" % (width, "benchmark", "committed",
                                     "fresh", "ratio"))
    worse = 0
    for name in common:
        ratio = fresh[name] / committed[name] if committed[name] > 0 else 0.0
        flag = ratio > 1.0 + THRESHOLD
        worse += flag
        print("%-*s  %10s  %10s  %7.3f%s" % (
            width, name, format_ns(committed[name]), format_ns(fresh[name]),
            ratio, "  WORSE" if flag else ""))
    for label, side, other in (("committed only", committed, fresh),
                               ("fresh only", fresh, committed)):
        missing = [name for name in side if name not in other]
        if missing:
            print("%s: %s" % (label, ", ".join(missing)))
    print("%d of %d rows more than %.0f%% worse than committed" % (
        worse, len(common), 100 * THRESHOLD))
    return 0


if __name__ == "__main__":
    sys.exit(main())
