#!/usr/bin/env python3
"""Compares two sets of benchmark runs, one row per (workload, metric).

    python3 benchmark/compare.py PARENT CHILD [--all]

PARENT and CHILD are directories (or single files) holding the saved
stdout of benchmark/run.py runs, one run per file. Runs are grouped by the
workload named in their header line and paired in (seed, file name)
order; run the two sides alternately, so that each pair shares the
host's conditions.

For each metric the row shows each side's median and quartiles, the
child median as a ratio of the parent median (with that base), and the
share of pairs each side won (ties count for neither). End-to-end metrics
get a verdict against their BENCHMARK.json bound:

  REGRESSION  the child median is worse than the parent's by more than
              the bound;
  unresolved  the parent's own spread (interquartile range over median)
              is wider than the bound, and not every child run beats
              every parent run;
  gain        at least ten pairs ran, the child won at least 9 in 10 of
              them, and its median is better by more than the parent's
              interquartile range;
  ok          none of the above.

The simulated metrics (sched_speedup_x, sim_iter_s) are deterministic
per seed. When the two sides ran some seeds in common, these metrics are
compared seed by seed instead, and any difference counts:

  REGRESSION  the child is worse at one of the common seeds, by any amount;
  gain        the child is better at some common seed and worse at none;
  exact       the two sides agree at every common seed.

Per-layer metrics carry no bound and get no verdict. --all adds every
other metric the runs printed (the workload-specific SLO lines).
Exits 1 when any row is a REGRESSION.
"""

import argparse
import json
import os
import statistics
import sys

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
# Fewer pairs let chance decide: one side wins all of 5 pairs 1 time in 16.
MIN_PAIRS_FOR_GAIN = 10
# Metrics that are a function of the seed alone: at a seed both sides ran,
# any difference is a change in the schedules or the simulator.
SIMULATED = {"sched_speedup_x", "sim_iter_s"}


def read_run(path):
    """Returns (workload, seed, {metric: (value, unit)}) or None."""
    workload = seed = None
    metrics = {}
    with open(path, encoding="utf-8", errors="replace") as f:
        for line in f:
            fields = line.split()
            if line.startswith("# tictac_benchmark"):
                header = dict(kv.split("=", 1) for kv in fields[2:]
                              if "=" in kv)
                workload = header.get("workload")
                seed = int(header.get("seed", "0"))
            elif workload and len(fields) == 4 and fields[0] == workload:
                try:
                    metrics[fields[1]] = (float(fields[2]), fields[3])
                except ValueError:
                    pass
    return (workload, seed, metrics) if workload else None


def read_side(path):
    files = ([os.path.join(path, f) for f in sorted(os.listdir(path))]
             if os.path.isdir(path) else [path])
    runs = {}
    for name in files:
        run = read_run(name)
        if run is None:
            print("compare.py: skipping %s (no benchmark header)" % name,
                  file=sys.stderr)
            continue
        workload, seed, metrics = run
        runs.setdefault(workload, []).append((seed, name, metrics))
    for workload in runs:
        runs[workload].sort(key=lambda r: (r[0], r[1]))
    return runs


def quartiles(values):
    if len(values) == 1:
        return values[0], values[0], values[0]
    q1, q2, q3 = statistics.quantiles(values, n=4)
    return q1, q2, q3


def fmt(x):
    return "%.6g" % x


def compare_seeded(parent, child, better, seeded):
    """Cells and verdict of a simulated metric from its common seeds.

    `seeded` holds one (parent value, child value) pair per common seed.
    """
    p1, pm, p3 = quartiles(parent)
    c1, cm, c3 = quartiles(child)
    sign = 1.0 if better == "higher" else -1.0
    worse = sum(1 for p, c in seeded if sign * (c - p) < 0)
    gained = sum(1 for p, c in seeded if sign * (c - p) > 0)
    verdict = "REGRESSION" if worse else "gain" if gained else "exact"
    return [
        "%s [%s, %s] n=%d" % (fmt(pm), fmt(p1), fmt(p3), len(parent)),
        "%s [%s, %s] n=%d" % (fmt(cm), fmt(c1), fmt(c3), len(child)),
        "%.6f of %s" % (cm / pm, fmt(pm)) if pm != 0 else "n/a (base 0)",
        "%d/%d seeds worse, %d better" % (worse, len(seeded), gained),
        "exact",
        verdict,
    ], verdict


def by_seed(runs, name):
    """{seed: value} of the first run at each seed."""
    values = {}
    for seed, _, metrics in runs:
        values.setdefault(seed, metrics[name][0])
    return values


def compare_metric(parent, child, better, bound):
    """Returns the table cells after the metric name, and the verdict.

    `better` is None for lines BENCHMARK.json does not list: they have no
    direction, so no side wins a pair.
    """
    p1, pm, p3 = quartiles(parent)
    c1, cm, c3 = quartiles(child)
    pairs = list(zip(parent, child))
    if pm != 0:
        ratio = "%.4f of %s" % (cm / pm, fmt(pm))
    else:
        ratio = "n/a (base 0)"
    cells = [
        "%s [%s, %s] n=%d" % (fmt(pm), fmt(p1), fmt(p3), len(parent)),
        "%s [%s, %s] n=%d" % (fmt(cm), fmt(c1), fmt(c3), len(child)),
        ratio,
    ]
    if better is None:
        return cells + ["-", "-", "-"], "-"
    sign = 1.0 if better == "higher" else -1.0
    child_wins = sum(1 for p, c in pairs if sign * (c - p) > 0)
    parent_wins = sum(1 for p, c in pairs if sign * (p - c) > 0)
    verdict = "-"
    if bound is not None and pm != 0:
        spread = (p3 - p1) / abs(pm)
        worse = sign * (pm - cm) / abs(pm)
        all_better = all(sign * (c - p) > 0 for c in child for p in parent)
        if spread > bound and not all_better:
            verdict = "unresolved"
        elif worse > bound:
            verdict = "REGRESSION"
        elif (len(pairs) >= MIN_PAIRS_FOR_GAIN
              and child_wins >= 0.9 * len(pairs)
              and sign * (cm - pm) > p3 - p1):
            verdict = "gain"
        else:
            verdict = "ok"
    cells += [
        "%d/%d vs %d/%d" % (parent_wins, len(pairs), child_wins, len(pairs)),
        "-" if bound is None else "%g%%" % (100 * bound),
        verdict,
    ]
    return cells, verdict


def main():
    parser = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    parser.add_argument("parent")
    parser.add_argument("child")
    parser.add_argument("--all", action="store_true",
                        help="also compare lines BENCHMARK.json does not list")
    args = parser.parse_args()

    with open(os.path.join(ROOT, "BENCHMARK.json"), encoding="utf-8") as f:
        spec = json.load(f)
    listed = {m["name"]: m for m in spec["end_to_end"] + spec["per_layer"]}
    order = [m["name"] for m in spec["end_to_end"] + spec["per_layer"]]

    parent_runs = read_side(args.parent)
    child_runs = read_side(args.child)
    header = ["workload", "metric", "unit", "parent median [q1, q3]",
              "child median [q1, q3]", "child/parent of base",
              "pairs won parent vs child", "bound", "verdict"]
    rows = []
    regressions = 0
    for workload in sorted(set(parent_runs) & set(child_runs)):
        p_runs, c_runs = parent_runs[workload], child_runs[workload]
        common = set.intersection(*(set(r[2]) for r in p_runs + c_runs))
        names = [n for n in order if n in common]
        if args.all:
            names += sorted(common - set(order))
        for name in names:
            unit = p_runs[0][2][name][1]
            parent = [r[2][name][0] for r in p_runs]
            child = [r[2][name][0] for r in c_runs]
            meta = listed.get(name, {})
            p_seeds, c_seeds = by_seed(p_runs, name), by_seed(c_runs, name)
            seeds = sorted(set(p_seeds) & set(c_seeds))
            if name in SIMULATED and seeds:
                cells, verdict = compare_seeded(
                    parent, child, meta["better"],
                    [(p_seeds[s], c_seeds[s]) for s in seeds])
            else:
                cells, verdict = compare_metric(
                    parent, child, meta.get("better"), meta.get("bound"))
            regressions += verdict == "REGRESSION"
            rows.append([workload, name, unit] + cells)
    if not rows:
        sys.exit("compare.py: the two sides share no workload and metric")

    widths = [max(len(str(r[i])) for r in rows + [header])
              for i in range(len(header))]
    for row in [header] + rows:
        print("  ".join(str(c).ljust(w) for c, w in zip(row, widths)).rstrip())
    sys.exit(1 if regressions else 0)


if __name__ == "__main__":
    main()
