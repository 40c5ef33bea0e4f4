#!/usr/bin/env python3
"""Checks the benchmark's failure paths.

    python3 benchmark/selftest.py [--workload W ...]

Run it from the repository root. It checks two things:

  1. With --fail-checks every output check fails. Each workload's
     untraced run must still end within the time limit, exit 0 and print
     a result line with correct=false, failed > 0 and every end-to-end
     metric.
  2. In a directory that holds only BENCHMARK.json and benchmark/,
     run.py must exit non-zero without printing a result line.

Prints one line per case and exits 1 when any case fails.
"""

import argparse
import json
import os
import shutil
import signal
import subprocess
import sys

BENCH_DIR = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(BENCH_DIR)
RUN = os.path.join("benchmark", "run.py")
TIMEOUT_S = 180


def run(cmd, cwd):
    """Runs cmd in its own process group; returns (code, stdout, stderr),
    or None after killing the whole group when it overruns TIMEOUT_S."""
    proc = subprocess.Popen(cmd, cwd=cwd, stdout=subprocess.PIPE,
                            stderr=subprocess.PIPE, text=True,
                            start_new_session=True)
    try:
        stdout, stderr = proc.communicate(timeout=TIMEOUT_S)
    except subprocess.TimeoutExpired:
        os.killpg(proc.pid, signal.SIGKILL)
        proc.communicate()
        return None
    return proc.returncode, stdout, stderr


def last_json(stdout):
    lines = stdout.strip().splitlines()
    if not lines:
        return None
    try:
        result = json.loads(lines[-1])
    except ValueError:
        return None
    return result if isinstance(result, dict) else None


def check_forced_failure(workload, spec):
    cmd = [sys.executable, RUN, "--workload", workload, "--seed", "1",
           "--seconds", "1", "--fail-checks"]
    outcome = run(cmd, ROOT)
    if outcome is None:
        return "did not end within %d s" % TIMEOUT_S
    code, stdout, stderr = outcome
    if code != 0:
        return "exited %d: %s" % (code, stderr.strip()[-300:])
    result = last_json(stdout)
    if result is None:
        return "printed no result line"
    if result.get("correct") is not False or not result.get("failed"):
        return "result does not report the failures: %s" % json.dumps(
            {k: result.get(k) for k in ("correct", "attempted", "failed")})
    missing = [m["name"] for m in spec["end_to_end"]
               if m["name"] not in result.get("metrics", {})]
    if missing:
        return "result lacks %s" % ", ".join(missing)
    return None


def check_bare_directory(spec):
    bare = os.path.join(ROOT, ".bench_build", "selftest-bare")
    shutil.rmtree(bare, ignore_errors=True)
    os.makedirs(bare)
    try:
        shutil.copy(os.path.join(ROOT, "BENCHMARK.json"), bare)
        shutil.copytree(BENCH_DIR, os.path.join(bare, "benchmark"),
                        ignore=shutil.ignore_patterns("__pycache__"))
        cmd = [sys.executable, RUN, "--workload",
               spec["workloads"][0]["name"], "--seed", "1", "--seconds", "1"]
        outcome = run(cmd, bare)
        if outcome is None:
            return "did not end within %d s" % TIMEOUT_S
        code, stdout, _ = outcome
        if code == 0:
            return "exited 0"
        if last_json(stdout) is not None:
            return "printed a result line"
        return None
    finally:
        shutil.rmtree(bare, ignore_errors=True)


def main():
    with open(os.path.join(ROOT, "BENCHMARK.json"), encoding="utf-8") as f:
        spec = json.load(f)
    names = [w["name"] for w in spec["workloads"]]
    parser = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    parser.add_argument("--workload", action="append", choices=names,
                        help="workloads to check (default: all)")
    args = parser.parse_args()

    cases = [("forced check failure, " + w,
              lambda w=w: check_forced_failure(w, spec))
             for w in (args.workload or names)]
    cases.append(("directory without the library",
                  lambda: check_bare_directory(spec)))
    failures = 0
    for name, case in cases:
        error = case()
        print("%s: %s" % ("FAIL" if error else "ok", name) +
              (" (%s)" % error if error else ""))
        failures += error is not None
    sys.exit(1 if failures else 0)


if __name__ == "__main__":
    main()
