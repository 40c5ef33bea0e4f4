// Session: the experiment execution engine behind the declarative
// ExperimentSpec/SweepSpec API (DESIGN.md §5).
//
// A Session owns a runtime::RunnerCache, so the PropertyIndex analysis —
// the expensive part of setting up a run — is built once per distinct
// (model, cluster) and reused by every policy, seed and multi-job run
// that touches it (sim-only axes such as sigma= still build one Runner
// per value). Run() executes one spec; RunAll() runs a grid on a thread
// pool, rows in spec order and bit-identical to serial execution.
#pragma once

#include <cstdint>
#include <string>
#include <vector>

#include "core/metrics.h"
#include "runtime/multijob.h"
#include "runtime/runner.h"
#include "runtime/spec.h"
#include "util/table.h"

namespace tictac::harness {

// Number of measured iterations per configuration, matching §6 (the paper
// records 10 iterations after warm-up; our simulator has no warm-up).
inline constexpr int kIterations = 10;

// The nine models of Figures 7/9/10 (Table 1 minus ResNet-101 v2, which
// the figures omit), in Table 1 order.
std::vector<std::string> FigureModels();

// One executed spec with its summary metrics (the scalar statistics the
// paper's tables report; per-iteration detail comes from Session::Run).
struct ResultRow {
  runtime::ExperimentSpec spec;
  double mean_iteration_s = 0.0;
  double throughput = 0.0;       // samples / second
  double mean_efficiency = 0.0;  // E (Eq. 3)
  double mean_overlap = 0.0;
  double max_straggler_pct = 0.0;
  double mean_straggler_pct = 0.0;
  int unique_recv_orders = 0;
};

// Deterministically-ordered results of a sweep, with uniform emitters
// replacing the per-bench printf tables.
class ResultTable {
 public:
  ResultTable() = default;
  explicit ResultTable(std::vector<ResultRow> rows) : rows_(std::move(rows)) {}

  const std::vector<ResultRow>& rows() const { return rows_; }
  std::size_t size() const { return rows_.size(); }
  const ResultRow& row(std::size_t i) const { return rows_.at(i); }

  // Throughput of `row` relative to its baseline twin — the row with an
  // identical spec except policy == "baseline" — as a fraction
  // (0.2 = +20%). Throws std::invalid_argument if the table holds no
  // matching baseline row.
  double SpeedupVsBaseline(const ResultRow& row) const;

  // RFC-4180 CSV with a header row; one line per row, spec first.
  std::string ToCsv() const;
  // JSON array of flat objects, one per row.
  std::string ToJson() const;
  // Human-readable summary (model, cluster, policy, metrics).
  util::Table ToTable() const;

 private:
  std::vector<ResultRow> rows_;
};

// One executed multi-job experiment: the shared-fabric result, the
// per-job isolated references (each job alone on the fabric — exactly
// the single-job Session path, so cached Runners are reused), and the
// interference statistics derived from the two.
struct MultiJobReport {
  runtime::MultiJobSpec spec;
  runtime::MultiJobResult result;
  // isolated[j] matches result.jobs[j]; empty when isolated references
  // were not requested.
  std::vector<runtime::ExperimentResult> isolated;
  // From mean iteration times, shared vs isolated; default-initialized
  // (slowdown 1, fairness 1) when isolated references were skipped.
  core::InterferenceStats interference;

  // Per-iteration slowdown distribution of job `j`: the paired ratios
  // shared.iterations[i].makespan / isolated.iterations[i].makespan
  // (both runs execute the same iteration count with the same seeds, so
  // the pairing is exact). Empty when isolated references were skipped.
  std::vector<double> IterationSlowdowns(std::size_t j) const;

  // Human-readable per-job summary (job, model, policy, offset, iter
  // time, throughput, and — when isolated references exist — mean plus
  // p50/p99 per-iteration slowdown).
  util::Table ToTable() const;
  // JSON object: spec, combined metrics, per-job array, interference.
  std::string ToJson() const;
};

class Session {
 public:
  // The cached Runner for the spec's (model, cluster) run alone; built on
  // first use, shared by every later spec with the same key. The
  // reference stays valid for the Session's lifetime. Thread-safe.
  const runtime::Runner& runner(const runtime::ExperimentSpec& spec);

  // Executes one spec (validates it first). Thread-safe.
  runtime::ExperimentResult Run(const runtime::ExperimentSpec& spec);

  // Executes every spec on `parallelism` threads (1 = serial in the
  // calling thread). Rows come back in input order; the table is
  // bit-identical for every parallelism level. The first failing spec's
  // exception is rethrown after in-flight runs drain.
  ResultTable RunAll(const std::vector<runtime::ExperimentSpec>& specs,
                     int parallelism = 1);
  ResultTable RunAll(const runtime::SweepSpec& sweep, int parallelism = 1);

  // Executes a multi-job experiment (runtime::MultiJobRunner on this
  // Session's RunnerCache) and, when `with_isolated` is true, each job
  // alone through Run() — the single-job Runner, same cache — to derive
  // per-job slowdown and Jain fairness. Contended Runners (fabric size
  // T > the job's workers) stay cached for the Session's lifetime: one
  // per distinct (model, cluster, T), reused by a repeated mix. The
  // second overload reuses a caller-built runner. Thread-safe.
  MultiJobReport RunMultiJob(const runtime::MultiJobSpec& spec,
                             bool with_isolated = true);
  MultiJobReport RunMultiJob(const runtime::MultiJobRunner& runner,
                             bool with_isolated = true);

  // Hardware concurrency, with a floor of 1 (and 4 when unknown).
  static int DefaultParallelism();

  // Runners analyzed so far: one per distinct (model, cluster) run alone
  // (a sweep's distinct graphs) plus one per (model, cluster, fabric
  // size T) a multi-job run co-located.
  std::size_t cached_runners() const { return cache_.size(); }

 private:
  runtime::RunnerCache cache_;
};

}  // namespace tictac::harness
