// Datacenter-scale contended sweep (DESIGN.md §11): N co-located jobs
// partitioned over K independent PS fabrics. Jobs contend only with the
// jobs on their own fabric, so each fabric is its own lowering and its
// own engine: Run simulates the K fabrics on separate threads through
// the one RunIterations loop, each with its own random stream, and the
// result stays identical at every thread count.
//
// This is the scale regime the per-fabric MultiJobRunner (capped at 64
// jobs) cannot reach: a 1000-job sweep becomes ceil(1000/64) = 16
// fabrics, each lowered once and simulated once per iteration.
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
  // Threads the fabrics are simulated on; 0 = hardware concurrency. The
  // simulated results are identical for every value.
  int num_threads = 0;
};

// Deterministic aggregate report: same spec + seed -> byte-identical
// ToJson() at any thread count (the CI smoke runs a sweep twice and
// cmp's the files).
struct ClusterSweepResult {
  int jobs = 0;
  int fabrics = 0;
  int components = 0;  // independent event loops: one per fabric
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
// RunnerCache). Throws std::invalid_argument on an empty job list, a
// negative fabric count, a partition that overflows the per-fabric cap,
// or fabrics whose jitter=/ooo= disagree (they are global to a run).
class ClusterSweep {
 public:
  explicit ClusterSweep(std::vector<MultiJobEntry> jobs,
                        ClusterSweepOptions options = {});

  ClusterSweep(const ClusterSweep&) = delete;
  ClusterSweep& operator=(const ClusterSweep&) = delete;

  // Simulates jobs[0].spec.iterations iterations from jobs[0].spec.seed.
  // Iteration i of a lone fabric is seeded seed + i, exactly like the
  // single-fabric path; with several, fabric f's is seeded
  // util::Rng::StreamSeed(seed + i, f).
  ClusterSweepResult Run() const;
  ClusterSweepResult Run(int iterations, std::uint64_t seed) const;

  int num_jobs() const { return num_jobs_; }
  int num_fabrics() const { return static_cast<int>(fabrics_.size()); }

 private:
  ClusterSweepOptions options_;
  int num_jobs_ = 0;
  // jobs[0]'s iterations= and seed=, what Run() simulates.
  int iterations_ = 0;
  std::uint64_t seed_ = 0;
  // Fabric f holds the next contiguous chunk of jobs, so concatenating
  // the fabrics' job slices gives global job order.
  std::vector<SharedFabric> fabrics_;
};

}  // namespace tictac::runtime
