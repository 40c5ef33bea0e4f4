#!/usr/bin/env bash
# Runs the scheduling-overhead and multi-job interference benchmark
# suites and emits one merged google-benchmark JSON, seeding the repo's
# perf trajectory: check BENCH_sched.json numbers against the previous
# run before landing scheduling-path changes.
#
# Besides the TIC/TAC scheduling costs, bench_sched_overhead's
# BM_SessionSweep cases record the wall-clock of a representative
# experiment grid through harness::Session's executor — serial (/1) vs
# one thread per core — bench_multijob's BM_MultiJob* cases record
# the contended-simulation cost plus per-policy slowdown/fairness
# counters, bench_service's BM_ServiceOpenSystem cases record the
# open-system scheduler-service SLOs (p99 slowdown, windowed fairness,
# utilization, queueing delay) per (policy x placement), and
# bench_faults' BM_FaultRecovery cases record the robustness SLOs
# (goodput vs offered, retries, lost iterations, MTTR) per (placement x
# fault scenario), and bench_exec's BM_ExecValidate cases record the
# sim-to-real round-trip cost plus prediction-fidelity counters
# (measured vs predicted iteration time, calibrated and uncalibrated
# error) per policy, and bench_lowering's BM_Lower* cases record the
# pass-pipeline lowering cost over the flat IR (DESIGN.md §10 keeps the
# deleted pre-IR lowering's last timings as its yardstick) plus the
# module's size (nodes, CSR pred entries), and
# bench_clustersweep's BM_ClusterSweep cases record the 100/1000-job
# contended sweep, one engine per fabric, plus the population
# SLO counters (p99 job iteration, Jain fairness); the summary below
# echoes all seven.
#
# Usage: bench/run_benches.sh [build_dir] [out.json] [extra benchmark args]
#   BENCH_MIN_TIME=0.2 bench/run_benches.sh build-release
#
# The bare-number min-time default keeps old libbenchmark (< 1.7, which
# rejects a unit suffix) working; on >= 1.8 (deprecation warning for bare
# numbers) set the suffixed form explicitly, as CI does:
#   BENCH_MIN_TIME=0.05s bench/run_benches.sh
set -euo pipefail

BUILD_DIR="${1:-build}"
OUT="${2:-BENCH_sched.json}"
shift $(( $# > 2 ? 2 : $# ))

BIN="${BUILD_DIR}/bench_sched_overhead"
if [[ ! -x "${BIN}" ]]; then
  echo "error: ${BIN} not found — configure with Google Benchmark installed" >&2
  exit 1
fi

# BENCH_sched.json is the repo's perf trajectory; numbers from anything
# but an optimized build poison it (a debug row once shipped as the
# committed baseline). Refuse unless the tree was configured Release, or
# the caller explicitly opts out for a local smoke run.
BUILD_TYPE="$(sed -n 's/^CMAKE_BUILD_TYPE:[^=]*=//p' \
    "${BUILD_DIR}/CMakeCache.txt" 2>/dev/null || true)"
if [[ "${BUILD_TYPE}" != "Release" && "${BENCH_ALLOW_DEBUG:-0}" != "1" ]]; then
  echo "error: ${BUILD_DIR} is configured as '${BUILD_TYPE:-unknown}', not" \
       "Release — benchmark numbers from unoptimized builds must not enter" \
       "${OUT}." >&2
  echo "  configure one with: cmake -B build-release -S ." \
       "-DCMAKE_BUILD_TYPE=Release" >&2
  echo "  or set BENCH_ALLOW_DEBUG=1 to run anyway (numbers are then" \
       "labeled '${BUILD_TYPE:-unknown}', not fit for committing)." >&2
  exit 1
fi

"${BIN}" \
  --benchmark_out="${OUT}" \
  --benchmark_out_format=json \
  --benchmark_min_time="${BENCH_MIN_TIME:-0.05}" \
  "$@"

# Multi-job interference and scheduler-service cases are merged into the
# same JSON, idempotently: rows are keyed by benchmark name, so a
# re-run (or a partial re-run against an existing BENCH_sched.json)
# replaces entries in place instead of duplicating them. The merge needs
# python3; the benchmarks themselves still run and print without it.
merge_rows() {
  local extra="$1"
  if command -v python3 >/dev/null 2>&1; then
    python3 - "${OUT}" "${extra}" <<'EOF'
import json
import sys

with open(sys.argv[1]) as f:
    merged = json.load(f)
with open(sys.argv[2]) as f:
    extra = json.load(f)
rows = merged.setdefault("benchmarks", [])
index = {row.get("name"): i for i, row in enumerate(rows)}
for row in extra.get("benchmarks", []):
    i = index.get(row.get("name"))
    if i is None:
        index[row.get("name")] = len(rows)
        rows.append(row)
    else:
        rows[i] = row
with open(sys.argv[1], "w") as f:
    json.dump(merged, f, indent=2)
    f.write("\n")
EOF
  else
    echo "note: python3 not found — rows of ${extra} not merged into ${OUT}" >&2
  fi
}

EXTRA_OUT="$(mktemp)"
trap 'rm -f "${EXTRA_OUT}"' EXIT
for extra_bench in bench_multijob bench_service bench_faults bench_exec \
                   bench_lowering bench_clustersweep; do
  EXTRA_BIN="${BUILD_DIR}/${extra_bench}"
  if [[ -x "${EXTRA_BIN}" ]]; then
    "${EXTRA_BIN}" \
      --benchmark_out="${EXTRA_OUT}" \
      --benchmark_out_format=json \
      --benchmark_min_time="${BENCH_MIN_TIME:-0.05}" \
      "$@"
    merge_rows "${EXTRA_OUT}"
  else
    echo "note: ${EXTRA_BIN} not found — BENCH JSON has no ${extra_bench} rows" >&2
  fi
done

echo "wrote ${OUT}"

# Sweep executor wall-clock and multi-job interference, from the JSON
# just written (best effort: skipped when python3 is unavailable).
if command -v python3 >/dev/null 2>&1; then
  python3 - "${OUT}" <<'EOF'
import json
import sys

with open(sys.argv[1]) as f:
    data = json.load(f)
rows = [b for b in data.get("benchmarks", [])
        if b.get("name", "").startswith("BM_SessionSweep")]
if rows:
    print("sweep executor wall-clock (BM_SessionSweep):")
    for b in rows:
        print(f"  {b['name']}: {b['real_time']:.1f} {b['time_unit']}")
    if len(rows) >= 2:
        serial = rows[0]["real_time"]
        best = min(b["real_time"] for b in rows[1:])
        print(f"  serial vs parallel speedup: {serial / best:.2f}x")
multijob = [b for b in data.get("benchmarks", [])
            if b.get("name", "").startswith("BM_MultiJob")]
if multijob:
    print("multi-job interference (BM_MultiJob*):")
    for b in multijob:
        slowdown = b.get("mean_slowdown")
        fairness = b.get("fairness")
        extras = ""
        if slowdown is not None and fairness is not None:
            extras = f" (mean slowdown {slowdown:.3f}x, fairness {fairness:.3f})"
        print(f"  {b['name']}: {b['real_time']:.1f} {b['time_unit']}{extras}")
service = [b for b in data.get("benchmarks", [])
           if b.get("name", "").startswith("BM_Service")]
if service:
    print("scheduler-service SLOs (BM_ServiceOpenSystem, policy x placement):")
    for b in service:
        p99 = b.get("p99_slowdown")
        fairness = b.get("mean_fairness")
        util = b.get("utilization")
        extras = ""
        if p99 is not None:
            extras = (f" (p99 slowdown {p99:.3f}x, fairness {fairness:.3f},"
                      f" utilization {util:.3f})")
        print(f"  {b['name']}: {b['real_time']:.1f} {b['time_unit']}{extras}")
faults = [b for b in data.get("benchmarks", [])
          if b.get("name", "").startswith("BM_FaultRecovery")]
if faults:
    print("fault recovery SLOs (BM_FaultRecovery, placement x scenario):")
    for b in faults:
        goodput = b.get("goodput_iters_per_s")
        retries = b.get("retries")
        mttr = b.get("mttr_ms")
        extras = ""
        if goodput is not None:
            extras = (f" (goodput {goodput:.1f} iters/s,"
                      f" retries {retries:.0f}, MTTR {mttr:.1f} ms)")
        print(f"  {b['name']}: {b['real_time']:.1f} {b['time_unit']}{extras}")
execs = [b for b in data.get("benchmarks", [])
         if b.get("name", "").startswith("BM_ExecValidate")]
if execs:
    print("sim-to-real fidelity (BM_ExecValidate, per policy):")
    for b in execs:
        err = b.get("prediction_error_pct")
        uncal = b.get("uncalibrated_error_pct")
        ok = b.get("calibration_ok")
        extras = ""
        if err is not None:
            extras = (f" (prediction error {err:.2f}%,"
                      f" uncalibrated {uncal:.2f}%,"
                      f" fit {'ok' if ok else 'POOR'})")
        print(f"  {b['name']}: {b['real_time']:.1f} {b['time_unit']}{extras}")
lowering = [b for b in data.get("benchmarks", [])
            if b.get("name", "").startswith(("BM_Lower", "BM_Shared",
                                             "BM_BuildSim",
                                             "BM_PropertyIndex"))]
if lowering:
    print("lowering pipeline, engine build and PropertyIndex (bench_lowering):")
    for b in lowering:
        nodes = b.get("nodes")
        pool = b.get("pred_entries")
        extras = ""
        if nodes is not None and pool is not None:
            extras = f" ({nodes:.0f} nodes, {pool:.0f} pred entries)"
        print(f"  {b['name']}: {b['real_time']:.1f} {b['time_unit']}{extras}")
cluster = [b for b in data.get("benchmarks", [])
           if b.get("name", "").startswith("BM_ClusterSweep")]
if cluster:
    print("datacenter contended sweep (BM_ClusterSweep, one engine per fabric):")
    for b in cluster:
        fabrics = b.get("fabrics")
        p99 = b.get("p99_job_iteration_s")
        fairness = b.get("fairness")
        extras = ""
        if fabrics is not None:
            extras = (f" ({fabrics:.0f} fabrics, p99 job iteration"
                      f" {p99:.3f} s, fairness {fairness:.3f})")
        print(f"  {b['name']}: {b['real_time']:.1f} {b['time_unit']}{extras}")
EOF
fi
