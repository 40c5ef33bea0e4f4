#include "runtime/clustersweep.h"

#include <algorithm>
#include <cmath>
#include <memory>
#include <optional>
#include <stdexcept>
#include <thread>
#include <utility>

#include "sim/flow.h"
#include "util/parallel.h"

namespace tictac::runtime {
namespace {

[[noreturn]] void Fail(const std::string& message) {
  throw std::invalid_argument("clustersweep: " + message);
}

// Nearest-rank percentile of a sorted sample: deterministic, no
// interpolation, exact for the byte-compare CI smoke.
double Percentile(const std::vector<double>& sorted, double q) {
  if (sorted.empty()) return 0.0;
  const auto n = static_cast<double>(sorted.size());
  const auto rank = static_cast<std::size_t>(std::ceil(q * n));
  return sorted[std::min(sorted.size() - 1, rank == 0 ? 0 : rank - 1)];
}

// Renumbers `fabric`'s resources densely in the order its tasks first
// use them, the resources no task uses after those, and permutes its
// flow network with them. The engine dispatches woken resources in id
// order, so the numbering fixes the order of a run's random draws; every
// recorded multi-fabric result was drawn under this one.
void NumberResourcesByFirstUse(SharedFabric& fabric) {
  Lowering& lowering = fabric.lowering;
  const auto num_resources = static_cast<std::size_t>(lowering.num_resources);
  std::vector<int> renumber(num_resources, -1);
  int next = 0;
  for (int& r : lowering.tasks.resource) {
    int& id = renumber[static_cast<std::size_t>(r)];
    if (id < 0) id = next++;
    r = id;
  }
  for (int& id : renumber) {
    if (id < 0) id = next++;
  }
  if (!lowering.flow) return;
  const sim::FlowNetwork& native = *lowering.flow;
  auto flow = std::make_shared<sim::FlowNetwork>();
  flow->links = native.links;
  flow->resource_links.resize(num_resources);
  flow->resource_nominal_bps.resize(num_resources, 0.0);
  for (std::size_t r = 0; r < native.resource_links.size(); ++r) {
    const auto id = static_cast<std::size_t>(renumber[r]);
    flow->resource_links[id] = native.resource_links[r];
    flow->resource_nominal_bps[id] = native.resource_nominal_bps[r];
  }
  fabric.options.network = flow.get();
  lowering.flow = std::move(flow);
}

}  // namespace

ClusterSweep::ClusterSweep(std::vector<MultiJobEntry> jobs,
                           ClusterSweepOptions options)
    : options_(options) {
  if (jobs.empty()) Fail("need >= 1 job");
  if (options_.fabrics < 0) {
    Fail("fabrics must be >= 0 (0 = fewest the cap allows)");
  }
  const int n = static_cast<int>(jobs.size());
  const int fabrics = options_.fabrics > 0
                          ? options_.fabrics
                          : (n + kMaxJobsPerFabric - 1) / kMaxJobsPerFabric;
  if (fabrics > n) {
    Fail("more fabrics (" + std::to_string(fabrics) + ") than jobs (" +
         std::to_string(n) + ")");
  }
  const int base = n / fabrics;
  const int extra = n % fabrics;  // first `extra` fabrics take one more
  if (base + (extra > 0 ? 1 : 0) > kMaxJobsPerFabric) {
    Fail("partitioning " + std::to_string(n) + " jobs over " +
         std::to_string(fabrics) + " fabrics puts " +
         std::to_string(base + (extra > 0 ? 1 : 0)) +
         " on one fabric; the per-fabric cap is " +
         std::to_string(kMaxJobsPerFabric) + " — use at least " +
         std::to_string((n + kMaxJobsPerFabric - 1) / kMaxJobsPerFabric) +
         " fabrics");
  }

  // Contiguous, size-balanced chunks; each fabric computes its own
  // schedules against its own contended oracle (jobs only contend with
  // co-located jobs, never across fabrics). Fabrics of the same size
  // share Runners and schedules through one cache, so replicated jobs
  // are analyzed once per sweep.
  RunnerCache cache;
  num_jobs_ = n;
  iterations_ = jobs.front().spec.iterations;
  seed_ = jobs.front().spec.seed;
  fabrics_.reserve(static_cast<std::size_t>(fabrics));
  std::size_t next = 0;
  for (int f = 0; f < fabrics; ++f) {
    const int size = base + (f < extra ? 1 : 0);
    MultiJobSpec spec;
    spec.jobs.assign(jobs.begin() + static_cast<std::ptrdiff_t>(next),
                     jobs.begin() + static_cast<std::ptrdiff_t>(next) + size);
    next += static_cast<std::size_t>(size);
    spec.Validate();
    SharedFabric& fabric =
        fabrics_.emplace_back(BuildSharedFabric(spec.jobs, cache));
    if (fabric.options.jitter_sigma != fabrics_[0].options.jitter_sigma ||
        fabric.options.out_of_order_probability !=
            fabrics_[0].options.out_of_order_probability) {
      Fail("fabric " + std::to_string(f) +
           " overrides jitter=/ooo= differently from fabric 0 — "
           "simulation options are global to a run");
    }
    if (fabrics > 1) NumberResourcesByFirstUse(fabric);
  }
}

ClusterSweepResult ClusterSweep::Run() const {
  return Run(iterations_, seed_);
}

ClusterSweepResult ClusterSweep::Run(int iterations,
                                     std::uint64_t seed) const {
  ClusterSweepResult result;
  result.jobs = num_jobs();
  result.fabrics = num_fabrics();
  result.components = num_fabrics();
  result.iterations = iterations;

  // Each fabric's run depends only on the fabric, the seed and its
  // stream, so the thread count cannot change a result.
  std::vector<MultiJobResult> runs(fabrics_.size());
  const bool streams = fabrics_.size() > 1;
  util::ParallelFor(
      fabrics_.size(),
      options_.num_threads > 0
          ? options_.num_threads
          : static_cast<int>(std::thread::hardware_concurrency()),
      [&](std::size_t f) {
        runs[f] = RunIterations(
            fabrics_[f].lowering, fabrics_[f].options, iterations, seed,
            /*whole=*/false,
            streams ? std::optional<std::uint64_t>(f) : std::nullopt);
      });

  // Per-job results in global job order (fabric-major); an iteration's
  // makespan is its latest fabric finish.
  std::vector<ExperimentResult> per_job;
  per_job.reserve(static_cast<std::size_t>(num_jobs()));
  std::vector<double> makespan(static_cast<std::size_t>(iterations), 0.0);
  for (std::size_t f = 0; f < runs.size(); ++f) {
    for (std::size_t j = 0; j < runs[f].jobs.size(); ++j) {
      per_job.push_back(std::move(runs[f].jobs[j]));
      per_job.back().samples_per_iteration =
          fabrics_[f].samples_per_iteration[j];
    }
    for (std::size_t i = 0; i < makespan.size(); ++i) {
      makespan[i] =
          std::max(makespan[i], runs[f].combined.iterations[i].makespan);
    }
  }
  double makespan_sum = 0.0;
  for (const double m : makespan) makespan_sum += m;
  result.mean_makespan_s = makespan_sum / static_cast<double>(iterations);

  result.job_mean_iteration_s.reserve(per_job.size());
  double throughput_sum = 0.0;
  double throughput_sq_sum = 0.0;
  double iteration_sum = 0.0;
  for (const ExperimentResult& job : per_job) {
    const double mean = job.MeanIterationTime();
    result.job_mean_iteration_s.push_back(mean);
    iteration_sum += mean;
    const double throughput = job.Throughput();
    throughput_sum += throughput;
    throughput_sq_sum += throughput * throughput;
  }
  result.mean_job_iteration_s =
      iteration_sum / static_cast<double>(per_job.size());
  std::vector<double> sorted = result.job_mean_iteration_s;
  std::sort(sorted.begin(), sorted.end());
  result.p50_job_iteration_s = Percentile(sorted, 0.50);
  result.p99_job_iteration_s = Percentile(sorted, 0.99);
  result.total_throughput = throughput_sum;
  result.fairness =
      throughput_sq_sum > 0.0
          ? (throughput_sum * throughput_sum) /
                (static_cast<double>(per_job.size()) * throughput_sq_sum)
          : 0.0;
  result.job_results = std::move(per_job);
  return result;
}

std::string ClusterSweepResult::ToJson() const {
  std::string json = "{\n";
  json += "  \"jobs\": " + std::to_string(jobs) + ",\n";
  json += "  \"fabrics\": " + std::to_string(fabrics) + ",\n";
  json += "  \"components\": " + std::to_string(components) + ",\n";
  json += "  \"iterations\": " + std::to_string(iterations) + ",\n";
  json += "  \"mean_makespan_s\": " + FormatDouble(mean_makespan_s) + ",\n";
  json += "  \"mean_job_iteration_s\": " + FormatDouble(mean_job_iteration_s) +
          ",\n";
  json += "  \"p50_job_iteration_s\": " + FormatDouble(p50_job_iteration_s) +
          ",\n";
  json += "  \"p99_job_iteration_s\": " + FormatDouble(p99_job_iteration_s) +
          ",\n";
  json += "  \"total_throughput\": " + FormatDouble(total_throughput) + ",\n";
  json += "  \"fairness\": " + FormatDouble(fairness) + ",\n";
  json += "  \"job_mean_iteration_s\": [";
  for (std::size_t j = 0; j < job_mean_iteration_s.size(); ++j) {
    json += (j == 0 ? "" : ", ") + FormatDouble(job_mean_iteration_s[j]);
  }
  json += "]\n}\n";
  return json;
}

}  // namespace tictac::runtime
