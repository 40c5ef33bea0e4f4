#!/usr/bin/env python3
"""Builds and runs the repository benchmark for one workload.

    python3 benchmark/run.py --workload W [--seed N] [--seconds S]
                             [--trace 0|1] [--fail-checks]

Run it from the repository root. The first run configures and builds
libtictac and the benchmark program (benchmark/tictac_benchmark.cc) into
.bench_build/; later runs only check that the build is up to date.
benchmark/CMakeLists.txt forces a Release build, and the program refuses
to run when it was compiled in any other build type.

--fail-checks makes every output check fail; benchmark/selftest.py uses
it to check that such a run ends and reports the failures.

The program's lines (`<workload> <metric> <value> <unit>`) are echoed to
stdout. The last line is one JSON object with the keys correct,
attempted, failed and metrics. With --trace 0 the metrics are the
`end_to_end` list of BENCHMARK.json, with --trace 1 the `per_layer` list.
A traced run also writes its host-time spans as a Chrome trace to
.bench_build/traces/<workload>-seed<N>.json.

Exits non-zero, without a JSON line, when the build or the program fails.
"""

import argparse
import json
import math
import os
import subprocess
import sys

BENCH_DIR = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(BENCH_DIR)
BUILD_DIR = os.path.join(ROOT, ".bench_build")
PROGRAM = os.path.join(BUILD_DIR, "tictac_benchmark")


def fail(message, code=1):
    print("run.py: " + message, file=sys.stderr)
    sys.exit(code)


def load_spec():
    with open(os.path.join(ROOT, "BENCHMARK.json"), encoding="utf-8") as f:
        return json.load(f)


def run_logged(cmd):
    """Runs a build step with its output on stderr; fails on error."""
    result = subprocess.run(cmd, cwd=ROOT, stdout=sys.stderr,
                            stderr=sys.stderr)
    if result.returncode != 0:
        fail("command failed (%d): %s" % (result.returncode, " ".join(cmd)))


def build():
    generated = any(os.path.exists(os.path.join(BUILD_DIR, f))
                    for f in ("Makefile", "build.ninja"))
    if not generated:
        run_logged(["cmake", "-S", BENCH_DIR, "-B", BUILD_DIR])
    jobs = str(max(1, min(4, os.cpu_count() or 1)))
    run_logged(["cmake", "--build", BUILD_DIR, "--target", "tictac_benchmark",
                "-j", jobs])


def commit():
    # Only look at a .git inside the checkout: git would otherwise search
    # the directories above it.
    if not os.path.exists(os.path.join(ROOT, ".git")):
        return "unknown"
    result = subprocess.run(["git", "rev-parse", "--short=12", "HEAD"],
                            cwd=ROOT, capture_output=True, text=True)
    return result.stdout.strip() if result.returncode == 0 else "unknown"


def parse_output(lines, workload):
    metrics = {}
    ops = None
    for line in lines:
        fields = line.split()
        if len(fields) == 4 and fields[0] == workload:
            metrics[fields[1]] = (float(fields[2]), fields[3])
        elif len(fields) == 3 and fields[0] == "ops":
            ops = {k: int(v) for k, v in (f.split("=") for f in fields[1:])}
    return metrics, ops


def main():
    spec = load_spec()
    workloads = [w["name"] for w in spec["workloads"]]
    parser = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    parser.add_argument("--workload", required=True, choices=workloads)
    parser.add_argument("--seed", type=int, default=1)
    parser.add_argument("--seconds", type=float, default=spec["run_seconds"])
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--fail-checks", action="store_true",
                        help="make every output check fail (self-test)")
    args = parser.parse_args()
    if args.seed < 0:
        fail("--seed must be >= 0", code=2)

    build()
    cmd = [PROGRAM, "--workload", args.workload, "--seed", str(args.seed),
           "--seconds", repr(args.seconds), "--trace", str(args.trace),
           "--work-dir", BUILD_DIR, "--commit", commit(),
           "--fail-checks", "1" if args.fail_checks else "0"]
    if args.trace:
        trace_dir = os.path.join(BUILD_DIR, "traces")
        os.makedirs(trace_dir, exist_ok=True)
        cmd += ["--trace-out", os.path.join(
            trace_dir, "%s-seed%d.json" % (args.workload, args.seed))]
    result = subprocess.run(cmd, cwd=ROOT, stdout=subprocess.PIPE, text=True)
    sys.stdout.write(result.stdout)
    if result.returncode != 0:
        fail("tictac_benchmark exited with %d" % result.returncode)

    measured, ops = parse_output(result.stdout.splitlines(), args.workload)
    if ops is None:
        fail("tictac_benchmark printed no ops line")
    listed = spec["per_layer" if args.trace else "end_to_end"]
    metrics = {}
    for metric in listed:
        name, unit = metric["name"], metric["unit"]
        if name not in measured:
            fail("tictac_benchmark did not report %s (%d of %d operations "
                 "failed)" % (name, ops["failed"], ops["attempted"]))
        value, measured_unit = measured[name]
        if measured_unit != unit or not math.isfinite(value):
            fail("bad %s: %r %s" % (name, value, measured_unit))
        metrics[name] = {"value": value, "unit": unit}
    print(json.dumps({
        "correct": ops["failed"] == 0,
        "attempted": ops["attempted"],
        "failed": ops["failed"],
        "metrics": metrics,
    }))


if __name__ == "__main__":
    main()
