#include "runtime/runner.h"

#include <algorithm>
#include <cstddef>
#include <limits>
#include <numeric>
#include <span>
#include <stdexcept>
#include <string>
#include <utility>
#include <vector>

#include "core/chunking.h"
#include "core/metrics.h"
#include "core/policy_registry.h"
#include "ir/module.h"
#include "models/zoo.h"
#include "runtime/sharding.h"
#include "util/rng.h"

namespace tictac::runtime {
namespace {

using Interval = std::pair<double, double>;

// Merges [start, end) intervals, given in non-decreasing start order,
// into disjoint spans, in place; returns the span count. The spans
// depend only on that order, not on how equal starts are ordered: a tie
// always joins the span its twin opened.
std::size_t MergeSortedIntervals(std::span<Interval> intervals) {
  std::size_t merged = 0;
  for (const auto& [start, end] : intervals) {
    if (merged > 0 && start <= intervals[merged - 1].second) {
      intervals[merged - 1].second =
          std::max(intervals[merged - 1].second, end);
    } else {
      intervals[merged++] = {start, end};
    }
  }
  return merged;
}

double CoveredLength(std::span<const Interval> spans) {
  double total = 0.0;
  for (const auto& [start, end] : spans) total += end - start;
  return total;
}

// Fraction of the shorter activity (comm vs comp busy time) that ran
// concurrently with the other. Both lists must be in non-decreasing
// start order; they are merged in place.
double OverlapFraction(std::span<Interval> comm, std::span<Interval> comp) {
  const std::span<const Interval> a = comm.first(MergeSortedIntervals(comm));
  const std::span<const Interval> b = comp.first(MergeSortedIntervals(comp));
  const double shorter = std::min(CoveredLength(a), CoveredLength(b));
  if (shorter <= 0.0) return 0.0;
  double intersection = 0.0;
  std::size_t i = 0;
  std::size_t j = 0;
  while (i < a.size() && j < b.size()) {
    const double lo = std::max(a[i].first, b[j].first);
    const double hi = std::min(a[i].second, b[j].second);
    if (hi > lo) intersection += hi - lo;
    if (a[i].second < b[j].second) {
      ++i;
    } else {
      ++j;
    }
  }
  return intersection / shorter;
}

// The slices' workers' communication and computation intervals in one
// table: list 2w holds worker w's comm intervals and list 2w + 1 its comp
// intervals, list k at intervals[begin[k], begin[k + 1]), each in
// non-decreasing start order. An interval is its task's (start, end)
// shifted onto its job's clock.
struct WorkerIntervals {
  std::vector<Interval> intervals;
  std::vector<std::size_t> begin;

  std::span<Interval> list(std::size_t k) {
    return {intervals.data() + begin[k], intervals.data() + begin[k + 1]};
  }
};

// Fills `out` for every worker of `slices`. It walks run.start_order,
// which the engine emits in start-time order, so no list needs a sort;
// unless that walk is non-decreasing in start and visits every listed
// task exactly once (a wall-clock backend may emit starts out of order;
// a run may leave tasks unstarted), it fills each list from worker_tasks
// and sorts it by (start, end) instead. The spans OverlapFraction merges
// are the same either way.
void FillIntervals(const Lowering& lowering, const sim::SimResult& run,
                   std::span<const JobSlice> slices, WorkerIntervals& out) {
  const auto lists = 2 * static_cast<std::size_t>(lowering.num_workers);
  // list_of[t]: the list task t goes to; -1 for a task in no list, -2
  // once placed.
  std::vector<int> list_of(lowering.tasks.size(), -1);
  std::vector<double> shift(lists, 0.0);
  out.begin.assign(lists + 1, 0);
  bool walkable = true;
  for (const JobSlice& slice : slices) {
    for (int w = slice.first_worker;
         w < slice.first_worker + slice.num_workers; ++w) {
      const auto wi = static_cast<std::size_t>(w);
      shift[2 * wi] = shift[2 * wi + 1] = slice.start_offset;
      for (const sim::TaskId t : lowering.worker_tasks[wi]) {
        const auto ti = static_cast<std::size_t>(t);
        walkable &= list_of[ti] == -1;  // a task in two partitions
        const std::size_t k =
            2 * wi + (core::IsCommunication(lowering.tasks.kind[ti]) ? 0 : 1);
        list_of[ti] = static_cast<int>(k);
        ++out.begin[k + 1];
      }
    }
  }
  for (std::size_t k = 1; k <= lists; ++k) out.begin[k] += out.begin[k - 1];
  out.intervals.resize(out.begin.back());
  const auto walk = [&] {
    std::vector<std::size_t> fill(out.begin.begin(), out.begin.end() - 1);
    std::size_t placed = 0;
    double previous = -std::numeric_limits<double>::infinity();
    for (const sim::TaskId t : run.start_order) {
      const auto ti = static_cast<std::size_t>(t);
      if (ti >= list_of.size() || list_of[ti] == -2) return false;
      const double start = run.start[ti];
      if (!(previous <= start)) return false;  // out of order, or NaN
      previous = start;
      if (list_of[ti] < 0) continue;
      const auto k = static_cast<std::size_t>(list_of[ti]);
      out.intervals[fill[k]++] = {start - shift[k], run.end[ti] - shift[k]};
      list_of[ti] = -2;
      ++placed;
    }
    return placed == out.intervals.size();
  };
  if (walkable && walk()) return;

  for (std::size_t k = 0; k < lists; ++k) {
    // Empty, or its worker is in no slice.
    if (out.begin[k] == out.begin[k + 1]) continue;
    const bool comm = k % 2 == 0;
    std::size_t next = out.begin[k];
    for (const sim::TaskId t : lowering.worker_tasks[k / 2]) {
      const auto ti = static_cast<std::size_t>(t);
      if (core::IsCommunication(lowering.tasks.kind[ti]) == comm) {
        out.intervals[next++] = {run.start[ti] - shift[k],
                                 run.end[ti] - shift[k]};
      }
    }
    const std::span<Interval> list = out.list(k);
    std::sort(list.begin(), list.end());
  }
}

}  // namespace

std::vector<IterationStats> ComputeIterationStats(
    const Lowering& lowering, const sim::SimResult& run,
    std::span<const JobSlice> slices) {
  WorkerIntervals intervals;
  FillIntervals(lowering, run, slices, intervals);

  // Per-worker partition makespan, scheduling efficiency (Eq. 3) from
  // this iteration's *measured* op times (as §3.2 does), and the
  // communication/computation overlap fraction. Per-resource busy time
  // sums in a dense array; `used` lists the resources the worker
  // touched, in first-touch order, so a reset costs one store each.
  std::vector<double> per_resource(
      static_cast<std::size_t>(std::max(lowering.num_resources, 0)), 0.0);
  std::vector<char> touched(per_resource.size(), 0);
  std::vector<std::size_t> used;
  std::vector<IterationStats> out;
  out.reserve(slices.size());
  for (const JobSlice& slice : slices) {
    const double o = slice.start_offset;
    IterationStats& stats = out.emplace_back();
    for (sim::TaskId t = slice.first_task; t < slice.last_task; ++t) {
      stats.makespan =
          std::max(stats.makespan, run.end[static_cast<std::size_t>(t)] - o);
    }
    double efficiency_sum = 0.0;
    double overlap_sum = 0.0;
    stats.worker_finish.reserve(static_cast<std::size_t>(slice.num_workers));
    for (int w = slice.first_worker;
         w < slice.first_worker + slice.num_workers; ++w) {
      double finish = 0.0;
      double upper = 0.0;
      for (sim::TaskId t : lowering.worker_tasks[static_cast<std::size_t>(w)]) {
        const auto ti = static_cast<std::size_t>(t);
        finish = std::max(finish, run.end[ti] - o);
        const double measured = (run.end[ti] - o) - (run.start[ti] - o);
        upper += measured;
        const auto r = static_cast<std::size_t>(lowering.tasks.resource[ti]);
        if (r >= per_resource.size()) {
          per_resource.resize(r + 1, 0.0);
          touched.resize(r + 1, 0);
        }
        if (!touched[r]) {
          touched[r] = 1;
          used.push_back(r);
        }
        per_resource[r] += measured;
      }
      double lower = 0.0;
      for (const std::size_t r : used) {
        lower = std::max(lower, per_resource[r]);
        per_resource[r] = 0.0;
        touched[r] = 0;
      }
      used.clear();
      stats.worker_finish.push_back(finish);
      core::MakespanBounds bounds{upper, lower};
      efficiency_sum += core::Efficiency(bounds, finish);
      const auto wi = static_cast<std::size_t>(w);
      overlap_sum += OverlapFraction(intervals.list(2 * wi),
                                     intervals.list(2 * wi + 1));
    }
    stats.mean_efficiency =
        efficiency_sum / static_cast<double>(slice.num_workers);
    stats.overlap_fraction =
        overlap_sum / static_cast<double>(slice.num_workers);

    const double t_max = *std::max_element(stats.worker_finish.begin(),
                                           stats.worker_finish.end());
    const double t_min = *std::min_element(stats.worker_finish.begin(),
                                           stats.worker_finish.end());
    stats.straggler_pct = t_max > 0.0 ? 100.0 * (t_max - t_min) / t_max : 0.0;

    // The job's first worker's parameter arrival order (§2.2's
    // observation).
    const auto w0 = static_cast<std::size_t>(slice.first_worker);
    const auto& recvs = lowering.worker_recv_tasks[w0];
    const auto& params = lowering.transfer_param[w0];
    std::vector<std::size_t> idx(recvs.size());
    std::iota(idx.begin(), idx.end(), 0);
    std::stable_sort(idx.begin(), idx.end(), [&](std::size_t a, std::size_t b) {
      return run.end[static_cast<std::size_t>(recvs[a])] - o <
             run.end[static_cast<std::size_t>(recvs[b])] - o;
    });
    stats.recv_order.reserve(idx.size());
    for (std::size_t j : idx) stats.recv_order.push_back(params[j]);
  }
  return out;
}

IterationStats ComputeIterationStats(const Lowering& lowering,
                                     const sim::SimResult& run) {
  // The whole lowering as one slice; its empty task range leaves the
  // makespan to run.makespan.
  const JobSlice whole{.num_workers = lowering.num_workers};
  IterationStats stats =
      std::move(ComputeIterationStats(lowering, run, {&whole, 1}).front());
  stats.makespan = run.makespan;
  return stats;
}

MultiJobResult RunIterations(const Lowering& lowering,
                             const sim::SimOptions& options, int iterations,
                             std::uint64_t seed, bool whole,
                             std::optional<std::uint64_t> stream) {
  if (iterations < 1 || iterations > kMaxIterations) {
    throw std::invalid_argument("runtime: iterations must be in [1, " +
                                std::to_string(kMaxIterations) + "], got " +
                                std::to_string(iterations));
  }
  const sim::TaskGraphSim engine = lowering.BuildSim();
  MultiJobResult result;
  result.jobs.resize(lowering.jobs.size());
  for (ExperimentResult& job : result.jobs) {
    job.iterations.reserve(static_cast<std::size_t>(iterations));
  }
  result.combined.iterations.reserve(static_cast<std::size_t>(iterations));
  for (int i = 0; i < iterations; ++i) {
    const std::uint64_t run_seed = seed + static_cast<std::uint64_t>(i);
    const sim::SimResult run = engine.Run(
        options, stream ? util::Rng::StreamSeed(run_seed, *stream) : run_seed);
    // The whole lowering is not one of the slices: FillIntervals keys its
    // clock shift per worker, and a task in two slices loses the walk.
    result.combined.iterations
        .emplace_back(whole ? ComputeIterationStats(lowering, run)
                            : IterationStats{})
        .makespan = run.makespan;
    std::vector<IterationStats> per_job =
        ComputeIterationStats(lowering, run, lowering.jobs);
    for (std::size_t j = 0; j < per_job.size(); ++j) {
      result.jobs[j].iterations.push_back(std::move(per_job[j]));
    }
  }
  return result;
}

double ExperimentResult::MeanIterationTime() const {
  if (iterations.empty()) return 0.0;
  double sum = 0.0;
  for (const auto& it : iterations) sum += it.makespan;
  return sum / static_cast<double>(iterations.size());
}

double ExperimentResult::Throughput() const {
  const double t = MeanIterationTime();
  return t > 0.0 ? samples_per_iteration / t : 0.0;
}

double ExperimentResult::MaxStragglerPct() const {
  double m = 0.0;
  for (const auto& it : iterations) m = std::max(m, it.straggler_pct);
  return m;
}

double ExperimentResult::MeanStragglerPct() const {
  if (iterations.empty()) return 0.0;
  double sum = 0.0;
  for (const auto& it : iterations) sum += it.straggler_pct;
  return sum / static_cast<double>(iterations.size());
}

double ExperimentResult::MeanEfficiency() const {
  if (iterations.empty()) return 0.0;
  double sum = 0.0;
  for (const auto& it : iterations) sum += it.mean_efficiency;
  return sum / static_cast<double>(iterations.size());
}

double ExperimentResult::MeanOverlap() const {
  if (iterations.empty()) return 0.0;
  double sum = 0.0;
  for (const auto& it : iterations) sum += it.overlap_fraction;
  return sum / static_cast<double>(iterations.size());
}

int ExperimentResult::UniqueRecvOrders() const {
  std::set<std::vector<int>> orders;
  for (const auto& it : iterations) orders.insert(it.recv_order);
  return static_cast<int>(orders.size());
}

double SamplesPerIteration(const models::ModelInfo& model,
                           const ClusterConfig& config) {
  return model.standard_batch * config.batch_factor * config.num_workers;
}

ClusterConfig SharedFabricConfig(const ExperimentSpec& spec,
                                 int total_workers) {
  ClusterConfig config = spec.BuildCluster();
  config.platform.bandwidth_bps *= static_cast<double>(config.num_workers) /
                                   static_cast<double>(total_workers);
  return config;
}

Runner::Runner(const models::ModelInfo& model, ClusterConfig config)
    : model_(model), config_(config) {
  config_.Validate();
  models::BuildOptions build;
  build.training = config_.training;
  build.batch_factor = config_.batch_factor;
  graph_ = models::BuildWorkerGraph(model_, build);
  if (config_.chunk_bytes > 0) {
    // Lowering replicates every op of the chunked worker graph once per
    // worker, so a chunk size that splits it past the task budget is
    // rejected before the rewrite allocates (chunk=1 on VGG-16 training
    // is ~1.1e9 ops).
    const core::ChunkingOptions chunking{.max_chunk_bytes =
                                             config_.chunk_bytes};
    const std::int64_t ops = core::ChunkedOpCount(graph_, chunking);
    if (ops > ir::kMaxLoweredTasks / config_.num_workers) {
      throw std::invalid_argument(
          "lowering: chunk=" + std::to_string(config_.chunk_bytes) +
          " splits " + model_.name + "'s worker graph into " +
          std::to_string(ops) + " ops, x workers=" +
          std::to_string(config_.num_workers) + " over the budget of " +
          std::to_string(ir::kMaxLoweredTasks) +
          " lowered tasks (ir::kMaxLoweredTasks); raise chunk=");
    }
    if (ops > kMaxChunkedWorkerOps) {
      throw std::invalid_argument(
          "lowering: chunk=" + std::to_string(config_.chunk_bytes) +
          " splits " + model_.name + "'s worker graph into " +
          std::to_string(ops) + " ops, over the scheduling budget of " +
          std::to_string(kMaxChunkedWorkerOps) +
          " ops (runtime::kMaxChunkedWorkerOps); raise chunk=");
    }
    graph_ = core::ChunkTransfers(graph_, chunking);
  }
  // Built after chunking, which rewrites the graph's recv set.
  index_ = std::make_unique<const core::PropertyIndex>(graph_);
  ps_of_param_ =
      ShardParams(models::ParamSizes(model_), config_.num_ps, config_.shard);
}

core::Schedule Runner::MakeSchedule(
    const core::SchedulingPolicy& policy) const {
  // The oracle must describe what transfers actually cost on this
  // cluster: each PS NIC is time-shared by all workers (see lowering).
  core::PlatformModel effective = config_.platform;
  effective.bandwidth_bps /= config_.num_workers;
  const core::AnalyticalTimeOracle exact(effective);
  if (config_.tac_oracle_sigma > 0.0 && policy.RequiresOracle()) {
    const core::NoisyTimeOracle noisy(exact, config_.tac_oracle_sigma,
                                      /*seed=*/0x7ac0ff5e);
    return policy.Compute(*index_, noisy);
  }
  return policy.Compute(*index_, exact);
}

core::Schedule Runner::MakeSchedule(const std::string& policy) const {
  return MakeSchedule(*core::PolicyRegistry::Global().Create(policy));
}

ExperimentResult Runner::Run(const std::string& policy, int iterations,
                             std::uint64_t seed) const {
  return Run(*core::PolicyRegistry::Global().Create(policy), iterations,
             seed);
}

ExperimentResult Runner::Run(const core::SchedulingPolicy& policy,
                             int iterations, std::uint64_t seed) const {
  // The ring collective fixes the transfer order itself: no schedule to
  // compute, so no §5.1 hand-off gates to enforce.
  const core::Schedule schedule = config_.topology == Topology::kRing
                                      ? core::Schedule{}
                                      : MakeSchedule(policy);
  const Lowering lowering =
      LowerCluster(graph_, schedule, ps_of_param_, config_);
  sim::SimOptions options = config_.sim;
  options.enforce_gates = schedule.size() == graph_.size() &&
                          schedule.CoversAllRecvs(graph_);
  // lowering.flow is non-null exactly when the config enabled
  // flow_fairness (lower_flow_nics); it outlives the runs below.
  options.network = lowering.flow.get();
  ExperimentResult result = std::move(
      RunIterations(lowering, options, iterations, seed).jobs.front());
  result.samples_per_iteration = SamplesPerIteration(model_, config_);
  return result;
}

namespace {

// '\n' cannot appear in a model name or a cluster spec, so the key is
// collision-free.
std::string RunnerKey(const ExperimentSpec& spec, int total_workers) {
  return spec.model + '\n' + spec.cluster.ToString() + '\n' +
         std::to_string(total_workers);
}

// The entry of `key` in `map`, built by `build` on the first lookup.
// Counts the lookup in `builds` or `hits` (under `mu`).
template <typename Map, typename Build>
const auto& GetOrBuild(std::mutex& mu, Map& map, const std::string& key,
                       std::uint64_t& builds, std::uint64_t& hits,
                       const Build& build) {
  using Slot = typename Map::mapped_type::element_type;
  std::shared_ptr<Slot> slot;
  {
    std::lock_guard<std::mutex> lock(mu);
    std::shared_ptr<Slot>& entry = map[key];
    ++(entry ? hits : builds);
    if (!entry) entry = std::make_shared<Slot>();
    slot = entry;
  }
  try {
    std::call_once(slot->once, [&] { slot->value = build(); });
  } catch (...) {
    // Construction failed (unknown model or policy, invalid cluster):
    // drop the dead entry so size() counts only built Runners. The
    // identity check tolerates a concurrent retry that already replaced
    // it.
    std::lock_guard<std::mutex> lock(mu);
    const auto it = map.find(key);
    if (it != map.end() && it->second == slot) map.erase(it);
    throw;
  }
  return *slot->value;
}

}  // namespace

const Runner& RunnerCache::runner(const ExperimentSpec& spec,
                                  int total_workers) {
  const auto build = [&] {
    return std::make_unique<const Runner>(
        models::FindModel(spec.model), SharedFabricConfig(spec, total_workers));
  };
  return GetOrBuild(mu_, runners_, RunnerKey(spec, total_workers),
                    counters_.runner_builds, counters_.runner_hits, build);
}

const RunnerCache::CachedSchedule& RunnerCache::schedule(
    const ExperimentSpec& spec, int total_workers) {
  const auto build = [&] {
    const Runner& on = runner(spec, total_workers);
    auto entry = std::make_unique<CachedSchedule>();
    entry->schedule = on.MakeSchedule(spec.policy);
    entry->covers_all_recvs =
        entry->schedule.size() == on.worker_graph().size() &&
        entry->schedule.CoversAllRecvs(on.worker_graph());
    return std::unique_ptr<const CachedSchedule>(std::move(entry));
  };
  return GetOrBuild(mu_, schedules_,
                    RunnerKey(spec, total_workers) + '\n' + spec.policy,
                    counters_.schedules_computed, counters_.schedule_hits,
                    build);
}

std::size_t RunnerCache::size() const {
  std::lock_guard<std::mutex> lock(mu_);
  return runners_.size();
}

RunnerCache::Counters RunnerCache::counters() const {
  std::lock_guard<std::mutex> lock(mu_);
  return counters_;
}

}  // namespace tictac::runtime
