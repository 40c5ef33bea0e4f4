// Datacenter-scale contended sweep (DESIGN.md §11): N co-located jobs
// partitioned over K independent PS fabrics, merged into ONE task graph
// with disjoint resource/gate/flow-link ranges, and simulated by the
// sharded event engine (sim::TaskGraphSim::RunParallel) — each fabric is
// an independent component, so the engine advances the K event loops on
// separate threads with per-component random streams while the result
// stays identical at every thread count.
//
// This is the scale regime the per-fabric MultiJobRunner (capped at 64
// jobs) cannot reach: a 1000-job sweep becomes ceil(1000/64) = 16
// fabrics, lowered once and simulated as a single graph that holds one
// copy of each task. That graph is one runtime::Lowering whose job
// slices are every fabric's jobs, and it runs through the same
// RunIterations loop as the single-fabric path, sharded.
#pragma once

#include <cstdint>
#include <string>
#include <vector>

#include "runtime/multijob.h"

namespace tictac::runtime {

struct ClusterSweepOptions {
  // Number of fabrics to partition the jobs over; 0 = as few as the
  // 64-job per-fabric cap allows (ceil(N / 64)). Jobs are split into
  // contiguous, size-balanced chunks.
  int fabrics = 0;
  // Threads for the sharded engine; 0 = hardware concurrency. The
  // simulated results are identical for every value (sim/engine.h).
  int num_threads = 0;
};

// Deterministic aggregate report: same spec + seed -> byte-identical
// ToJson() at any thread count (the CI smoke runs a sweep twice and
// cmp's the files).
struct ClusterSweepResult {
  int jobs = 0;
  int fabrics = 0;
  int components = 0;  // independent event-loop shards in the merged sim
  int iterations = 0;
  // Mean over iterations of the latest fabric finish (the sweep's
  // wall-clock per iteration).
  double mean_makespan_s = 0.0;
  // Distribution of per-job mean iteration times across the population.
  double mean_job_iteration_s = 0.0;
  double p50_job_iteration_s = 0.0;
  double p99_job_iteration_s = 0.0;
  // Sum of per-job throughputs (samples/s) and Jain fairness across them.
  double total_throughput = 0.0;
  double fairness = 0.0;
  // Per-job mean iteration time, in global job order.
  std::vector<double> job_mean_iteration_s;
  // Every job's per-iteration statistics, in global job order (ToJson
  // prints only their mean iteration times above).
  std::vector<ExperimentResult> job_results;

  std::string ToJson() const;
};

// Builds and runs the partitioned sweep. Construction partitions the
// jobs, validates each fabric's MultiJobSpec and builds it with
// BuildSharedFabric (schedules computed against each fabric's contended
// oracle, Runners and schedules shared across fabrics through one
// RunnerCache), then moves its tasks into one merged Lowering with
// disjoint task, resource, worker, gate-group and flow-link id ranges
// before the next fabric is built. Throws std::invalid_argument on an
// empty job list, a negative fabric count, a partition that overflows
// the per-fabric cap, or fabrics whose simulation options disagree
// (jitter/ooo/gates are global to a run).
class ClusterSweep {
 public:
  explicit ClusterSweep(std::vector<MultiJobEntry> jobs,
                        ClusterSweepOptions options = {});

  ClusterSweep(const ClusterSweep&) = delete;
  ClusterSweep& operator=(const ClusterSweep&) = delete;

  // Simulates jobs[0].spec.iterations iterations seeded seed + i from
  // jobs[0].spec.seed, exactly like the single-fabric path.
  ClusterSweepResult Run() const;
  ClusterSweepResult Run(int iterations, std::uint64_t seed) const;

  int num_jobs() const { return static_cast<int>(merged_.jobs.size()); }
  int num_fabrics() const { return num_fabrics_; }

 private:
  ClusterSweepOptions options_;
  int num_fabrics_ = 0;
  // jobs[0]'s iterations= and seed=, what Run() simulates.
  int iterations_ = 0;
  std::uint64_t seed_ = 0;
  // Every fabric's tasks in one graph; its flow network (null when no
  // fabric enables flow fairness) is what merged_options_.network points
  // at. merged_.jobs[g] is job g's view of it, in global job order
  // (fabric-major).
  Lowering merged_;
  std::vector<double> samples_per_iteration_;  // per job
  sim::SimOptions merged_options_;
};

}  // namespace tictac::runtime
