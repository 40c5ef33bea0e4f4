#include "runtime/runner.h"

#include <algorithm>
#include <map>
#include <numeric>

#include "core/chunking.h"
#include "core/metrics.h"
#include "core/policy_registry.h"
#include "models/zoo.h"
#include "runtime/allreduce.h"
#include "runtime/sharding.h"

namespace tictac::runtime {
namespace {

// Merges a set of [start, end) intervals into disjoint spans.
std::vector<std::pair<double, double>> MergeIntervals(
    std::vector<std::pair<double, double>> intervals) {
  std::sort(intervals.begin(), intervals.end());
  std::vector<std::pair<double, double>> merged;
  for (const auto& [start, end] : intervals) {
    if (!merged.empty() && start <= merged.back().second) {
      merged.back().second = std::max(merged.back().second, end);
    } else {
      merged.emplace_back(start, end);
    }
  }
  return merged;
}

double CoveredLength(const std::vector<std::pair<double, double>>& spans) {
  double total = 0.0;
  for (const auto& [start, end] : spans) total += end - start;
  return total;
}

// Fraction of the shorter activity (comm vs comp busy time) that ran
// concurrently with the other.
double OverlapFraction(std::vector<std::pair<double, double>> comm,
                       std::vector<std::pair<double, double>> comp) {
  const auto a = MergeIntervals(std::move(comm));
  const auto b = MergeIntervals(std::move(comp));
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

}  // namespace

IterationStats ComputeIterationStats(const Lowering& lowering,
                                     const sim::SimResult& run) {
  IterationStats stats;
  stats.makespan = run.makespan;

  // Per-worker partition makespan, scheduling efficiency (Eq. 3) from
  // this iteration's *measured* op times (as §3.2 does), and the
  // communication/computation overlap fraction.
  double efficiency_sum = 0.0;
  double overlap_sum = 0.0;
  for (int w = 0; w < lowering.num_workers; ++w) {
    double finish = 0.0;
    double upper = 0.0;
    std::map<int, double> per_resource;
    std::vector<std::pair<double, double>> comm;
    std::vector<std::pair<double, double>> comp;
    for (sim::TaskId t : lowering.worker_tasks[static_cast<std::size_t>(w)]) {
      const auto ti = static_cast<std::size_t>(t);
      finish = std::max(finish, run.end[ti]);
      const double measured = run.end[ti] - run.start[ti];
      upper += measured;
      per_resource[lowering.tasks[ti].resource] += measured;
      (core::IsCommunication(lowering.tasks[ti].kind) ? comm : comp)
          .emplace_back(run.start[ti], run.end[ti]);
    }
    double lower = 0.0;
    for (const auto& [r, total] : per_resource) lower = std::max(lower, total);
    stats.worker_finish.push_back(finish);
    core::MakespanBounds bounds{upper, lower};
    efficiency_sum += core::Efficiency(bounds, finish);
    overlap_sum += OverlapFraction(comm, comp);
  }
  stats.mean_efficiency =
      efficiency_sum / static_cast<double>(lowering.num_workers);
  stats.overlap_fraction =
      overlap_sum / static_cast<double>(lowering.num_workers);

  const double t_max =
      *std::max_element(stats.worker_finish.begin(), stats.worker_finish.end());
  const double t_min =
      *std::min_element(stats.worker_finish.begin(), stats.worker_finish.end());
  stats.straggler_pct = t_max > 0.0 ? 100.0 * (t_max - t_min) / t_max : 0.0;

  // Worker 0 parameter arrival order (§2.2's observation).
  {
    const auto& recvs = lowering.worker_recv_tasks[0];
    const auto& params = lowering.transfer_param[0];
    std::vector<std::size_t> idx(recvs.size());
    std::iota(idx.begin(), idx.end(), 0);
    std::stable_sort(idx.begin(), idx.end(), [&](std::size_t a, std::size_t b) {
      return run.end[static_cast<std::size_t>(recvs[a])] <
             run.end[static_cast<std::size_t>(recvs[b])];
    });
    stats.recv_order.reserve(idx.size());
    for (std::size_t j : idx) stats.recv_order.push_back(params[j]);
  }
  return stats;
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

double ExperimentResult::MaxEfficiency() const {
  double m = 0.0;
  for (const auto& it : iterations) m = std::max(m, it.mean_efficiency);
  return m;
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
    graph_ = core::ChunkTransfers(graph_,
                                  {.max_chunk_bytes = config_.chunk_bytes});
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
  Lowering lowering;
  sim::SimOptions options = config_.sim;
  if (config_.topology == Topology::kRing) {
    // The ring collective fixes the transfer order itself: no schedule
    // to compute, no §5.1 hand-off gates to enforce.
    lowering = LowerAllReduce(graph_, config_);
    options.enforce_gates = false;
  } else {
    const core::Schedule schedule = MakeSchedule(policy);
    lowering = LowerCluster(graph_, schedule, ps_of_param_, config_);
    options.enforce_gates = schedule.size() == graph_.size() &&
                            schedule.CoversAllRecvs(graph_);
  }
  // lowering.flow is non-null exactly when the config enabled
  // sim.flow_fairness (lower_flow_nics); it outlives the runs below.
  options.network = lowering.flow.get();
  sim::TaskGraphSim sim = lowering.BuildSim();

  ExperimentResult result;
  result.samples_per_iteration = SamplesPerIteration(model_, config_);
  result.iterations.reserve(static_cast<std::size_t>(iterations));

  for (int i = 0; i < iterations; ++i) {
    const sim::SimResult run =
        sim.Run(options, seed + static_cast<std::uint64_t>(i));
    result.iterations.push_back(ComputeIterationStats(lowering, run));
  }
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
