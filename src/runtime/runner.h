// Experiment runner: builds a model's worker partition, schedules it with
// the requested policy, lowers the cluster, and simulates iterations,
// collecting the paper's metrics (throughput, scheduling efficiency E,
// straggler share, transfer orders). RunnerCache is the one place
// Runners and their schedules are built and shared.
#pragma once

#include <cstdint>
#include <memory>
#include <mutex>
#include <optional>
#include <set>
#include <span>
#include <string>
#include <unordered_map>
#include <vector>

#include "core/policy_registry.h"
#include "core/properties.h"
#include "core/schedule.h"
#include "models/builder.h"
#include "runtime/lowering.h"
#include "runtime/spec.h"

namespace tictac::runtime {

struct IterationStats {
  double makespan = 0.0;                // cluster iteration time (seconds)
  std::vector<double> worker_finish;    // per-worker partition makespan
  double straggler_pct = 0.0;           // max worker wait / iteration time
  double mean_efficiency = 0.0;         // E (Eq. 3) averaged over workers
  std::vector<int> recv_order;          // worker 0 transfer completion order
  // Fraction of the smaller of (communication busy time, computation busy
  // time) during which both proceeded concurrently, averaged over
  // workers. 1 = perfect overlap of the shorter side, 0 = fully serial.
  double overlap_fraction = 0.0;
};

// Statistics of one simulated iteration of `lowering`, as a whole:
// per-worker partition makespans, Eq.-3 scheduling efficiency from the
// iteration's measured op times, communication/computation overlap,
// straggler share, and worker-0's parameter arrival order. `run` must be
// the SimResult of lowering's own task graph. stats.makespan is
// run.makespan.
IterationStats ComputeIterationStats(const Lowering& lowering,
                                     const sim::SimResult& run);

// The same statistics for each of `slices` (job views of `lowering`),
// read from the one run on each job's own clock: every start and end is
// shifted back by start_offset, so waiting to arrive is not billed as
// execution time or Eq.-3 inefficiency, and makespan is the max shifted
// end over [first_task, last_task). (Under jitter the delay task may run
// off the nominal offset, so a shifted start can be marginally negative;
// the metrics only use differences and maxima.) Slices must not share
// workers: the clock shift is kept per worker.
std::vector<IterationStats> ComputeIterationStats(
    const Lowering& lowering, const sim::SimResult& run,
    std::span<const JobSlice> slices);

struct ExperimentResult {
  std::vector<IterationStats> iterations;
  double samples_per_iteration = 0.0;

  double MeanIterationTime() const;
  double Throughput() const;  // samples / second
  // The paper reports the max across iterations for stragglers and E.
  double MaxStragglerPct() const;
  double MeanStragglerPct() const;
  double MaxEfficiency() const;
  double MeanEfficiency() const;
  double MeanOverlap() const;
  // Distinct worker-0 parameter arrival orders across iterations (§2.2).
  int UniqueRecvOrders() const;
};

// Combined + per-job views of one multi-job experiment. jobs[j] is read
// from the same simulated executions the combined result summarizes, on
// the job's own clock (ComputeIterationStats over the slices), so for
// every iteration i:
//   combined.iterations[i].makespan ==
//       max_j (jobs[j].iterations[i].makespan + start_offset_j)
// (each task belongs to exactly one job; delay tasks never finish
// last). With all offsets zero — the common case — the combined
// makespan is exactly the max over per-job makespans.
struct MultiJobResult {
  ExperimentResult combined;
  std::vector<ExperimentResult> jobs;
};

// The one iteration loop, behind Runner::Run, RunSharedFabric and
// ClusterSweep::Run. Checks iterations against [1, kMaxIterations],
// builds an engine over lowering.tasks and simulates iteration i with
// TaskGraphSim::Run seeded seed + i, or util::Rng::StreamSeed(seed + i,
// *stream) when `stream` is set (a cluster sweep's fabric of several).
// result.jobs[j] takes slice j's statistics;
// result.combined.iterations[i] takes run i's makespan, and the rest of
// the whole lowering's statistics (the 2-arg call) only when `whole` is
// set. samples_per_iteration is the caller's to fill.
MultiJobResult RunIterations(const Lowering& lowering,
                             const sim::SimOptions& options, int iterations,
                             std::uint64_t seed, bool whole = false,
                             std::optional<std::uint64_t> stream =
                                 std::nullopt);

// Samples one iteration of a job processes: the model's standard batch,
// scaled by the batch factor, on each of the job's workers.
double SamplesPerIteration(const models::ModelInfo& model,
                           const ClusterConfig& config);

// `spec`'s cluster as one job of a shared PS fabric of `total_workers`
// workers in all (DESIGN.md §6). Every PS NIC is time-shared by the
// pair-channels of all T workers, so the platform bandwidth is scaled by
// W_j / T; the per-channel figure LowerCluster and Runner::MakeSchedule
// derive (bandwidth / W_j) then comes out as the contended bandwidth / T.
// A job alone on its fabric (T = W_j) gets spec.BuildCluster() exactly.
ClusterConfig SharedFabricConfig(const ExperimentSpec& spec,
                                 int total_workers);

// The most ops a Runner's chunked worker graph may have. PropertyIndex
// and TAC analyse that graph whole, so their cost, not memory, bounds
// chunk=: VGG-16 training at chunk=1024 (1.08M ops) took 6.6 s and at
// chunk=256 (4.3M ops) 95 s, against ir::kMaxLoweredTasks' 16.8M.
inline constexpr std::int64_t kMaxChunkedWorkerOps = std::int64_t{1} << 20;

class Runner {
 public:
  // Validates `config` (ClusterConfig::Validate) before building the
  // worker graph; throws std::invalid_argument on a bad configuration.
  //
  // Runs are const and touch only per-call state, so one Runner may
  // serve concurrent Run()/MakeSchedule() calls from several threads
  // (harness::Session's parallel sweep executor relies on this).
  Runner(const models::ModelInfo& model, ClusterConfig config);

  // The cached PropertyIndex points into graph_; a copied or moved Runner
  // would leave it dangling. Caching it also amortizes the dependency
  // analysis (and its class → ops rows, which TAC's incremental
  // property maintenance walks) across every policy this Runner
  // evaluates.
  Runner(const Runner&) = delete;
  Runner& operator=(const Runner&) = delete;

  // The priority schedule the given policy produces for this model (empty
  // — no priorities — for the baseline). The policy is fed a time oracle
  // reflecting this cluster's effective transfer costs (PS NICs are
  // time-shared by all workers, see lowering), perturbed by
  // config.tac_oracle_sigma when the policy requires timing.
  core::Schedule MakeSchedule(const core::SchedulingPolicy& policy) const;

  // Simulates `iterations` iterations; deterministic in `seed`. Gate
  // enforcement is on iff the policy's schedule covers every recv.
  ExperimentResult Run(const core::SchedulingPolicy& policy, int iterations,
                       std::uint64_t seed) const;

  // Name-based conveniences resolving `policy` (a spec like "tic" or
  // "random:7") through core::PolicyRegistry::Global().
  core::Schedule MakeSchedule(const std::string& policy) const;
  ExperimentResult Run(const std::string& policy, int iterations,
                       std::uint64_t seed) const;

  const models::ModelInfo& model() const { return model_; }
  const core::Graph& worker_graph() const { return graph_; }
  const ClusterConfig& config() const { return config_; }
  const std::vector<int>& ps_of_param() const { return ps_of_param_; }

 private:
  models::ModelInfo model_;
  ClusterConfig config_;
  core::Graph graph_;
  // Dependency analysis of graph_, shared by every policy invocation.
  std::unique_ptr<const core::PropertyIndex> index_;
  std::vector<int> ps_of_param_;
};

// The one cache of analyzed Runners (DESIGN.md §5): an entry is the
// Runner for a spec's (model, cluster) as one job of a fabric of
// `total_workers` workers, built from SharedFabricConfig — with
// total_workers = spec.cluster.workers, the plain single-job Runner —
// plus each policy's schedule on it. Thread-safe: an entry is created
// under the lock but built outside it, once, so distinct keys build
// concurrently; a build that throws leaves no entry. References stay
// valid for the cache's lifetime (which the mutex makes non-copyable).
class RunnerCache {
 public:
  struct CachedSchedule {
    core::Schedule schedule;
    bool covers_all_recvs = false;  // gates are enforced
  };
  // Lookups so far. A schedule miss looks up its Runner through
  // runner(), so it counts there as well.
  struct Counters {
    std::uint64_t runner_builds = 0;
    std::uint64_t runner_hits = 0;
    std::uint64_t schedules_computed = 0;
    std::uint64_t schedule_hits = 0;
  };

  const Runner& runner(const ExperimentSpec& spec, int total_workers);
  // spec.policy's schedule on runner(spec, total_workers).
  const CachedSchedule& schedule(const ExperimentSpec& spec,
                                 int total_workers);

  std::size_t size() const;  // Runners cached
  Counters counters() const;

 private:
  template <typename Value>
  struct Slot {
    std::once_flag once;
    std::unique_ptr<const Value> value;
  };

  mutable std::mutex mu_;
  std::unordered_map<std::string, std::shared_ptr<Slot<Runner>>> runners_;
  std::unordered_map<std::string, std::shared_ptr<Slot<CachedSchedule>>>
      schedules_;
  Counters counters_;  // guarded by mu_
};

}  // namespace tictac::runtime
