#!/usr/bin/env python3
"""Diffs a fresh google-benchmark JSON against the committed one.

    python3 bench/diff_bench.py COMMITTED FRESH
    python3 bench/diff_bench.py --pair PARENT_BIN CHILD_BIN --filter RE \
        [--pairs N] [--bench-arg ARG ...]

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

--pair measures instead of reading files: it runs two builds of one
benchmark binary (say the parent commit's and a change's) N times each
(default 10), alternating them so each pair of runs shares the host's
conditions, with the parent first in half the pairs. Every run gets
--benchmark_filter=RE, JSON output and each --bench-arg. Per row it
prints, as benchmark/compare.py does, each side's median and quartiles
over the N runs, the child median as a ratio of the parent's, and the
pairs each side won (the lower time wins; ties count for neither). A
row is flagged WORSE (or BETTER) when the child median is above (below)
the parent's by more than the parent's own interquartile range.
"""

import argparse
import json
import statistics
import subprocess
import sys

THRESHOLD = 0.10
UNIT_NS = {"ns": 1.0, "us": 1e3, "ms": 1e6, "s": 1e9}


def load_times(path):
    """Returns {run name: real time in ns}, in first-appearance order."""
    with open(path, encoding="utf-8") as f:
        return parse_times(json.load(f))


def parse_times(report):
    """{run name: real time in ns} of one google-benchmark JSON report."""
    rows = report.get("benchmarks", [])
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


def run_once(binary, args):
    """{run name: ns} of one run of `binary`."""
    out = subprocess.run([binary, "--benchmark_format=json"] + args,
                         check=True, capture_output=True, text=True).stdout
    return parse_times(json.loads(out))


def quartiles(values):
    if len(values) == 1:
        return values[0], values[0], values[0]
    q1, q2, q3 = statistics.quantiles(values, n=4)
    return q1, q2, q3


def pair_main(parent_bin, child_bin, bench_filter, pairs, extra):
    args = ["--benchmark_filter=" + bench_filter] + extra
    runs = {"parent": [], "child": []}
    for i in range(pairs):
        order = ("parent", "child") if i % 2 == 0 else ("child", "parent")
        for side in order:
            binary = parent_bin if side == "parent" else child_bin
            runs[side].append(run_once(binary, args))
            print("pair %d/%d: %s done" % (i + 1, pairs, side),
                  file=sys.stderr)
    names = [n for n in runs["parent"][0]
             if all(n in r for r in runs["parent"] + runs["child"])]
    width = max([len(n) for n in names] + [9])
    print("%-*s  %-30s  %-30s  %7s  %s" % (
        width, "benchmark", "parent median [q1, q3]",
        "child median [q1, q3]", "ratio", "pairs won parent vs child"))
    for name in names:
        parent = [r[name] for r in runs["parent"]]
        child = [r[name] for r in runs["child"]]
        p1, pm, p3 = quartiles(parent)
        c1, cm, c3 = quartiles(child)
        parent_wins = sum(1 for p, c in zip(parent, child) if p < c)
        child_wins = sum(1 for p, c in zip(parent, child) if c < p)
        flag = ("  WORSE" if cm - pm > p3 - p1 else
                "  BETTER" if pm - cm > p3 - p1 else "")
        print("%-*s  %-30s  %-30s  %7.3f  %d/%d vs %d/%d%s" % (
            width, name,
            "%s [%s, %s]" % (format_ns(pm), format_ns(p1), format_ns(p3)),
            "%s [%s, %s]" % (format_ns(cm), format_ns(c1), format_ns(c3)),
            cm / pm if pm > 0 else 0.0, parent_wins, pairs, child_wins,
            pairs, flag))
    return 0


def main():
    parser = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    parser.add_argument("committed", nargs="?")
    parser.add_argument("fresh", nargs="?")
    parser.add_argument("--pair", nargs=2, metavar=("PARENT_BIN", "CHILD_BIN"),
                        help="run two benchmark binaries in alternating "
                             "pairs instead of reading two JSON files")
    parser.add_argument("--filter", default=".",
                        help="--benchmark_filter regex for --pair")
    parser.add_argument("--pairs", type=int, default=10,
                        help="runs of each binary for --pair")
    parser.add_argument("--bench-arg", action="append", default=[],
                        help="extra argument for every --pair run")
    args = parser.parse_args()
    if args.pair:
        if args.committed or args.fresh or args.pairs < 1:
            parser.error("--pair takes two binaries, no files, and "
                         "--pairs >= 1")
        try:
            return pair_main(args.pair[0], args.pair[1], args.filter,
                             args.pairs, args.bench_arg)
        except (OSError, ValueError, subprocess.CalledProcessError) as e:
            print("diff_bench.py: %s" % e, file=sys.stderr)
            return 2
    if not args.committed or not args.fresh:
        parser.error("give COMMITTED and FRESH, or --pair")
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
