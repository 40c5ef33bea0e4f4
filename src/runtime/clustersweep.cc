#include "runtime/clustersweep.h"

#include <algorithm>
#include <cmath>
#include <memory>
#include <stdexcept>
#include <utility>

#include "sim/flow.h"

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
  //
  // Each fabric's lowering is moved into merged_ as soon as it is built:
  // disjoint task, resource, worker, gate-group and flow-link id ranges,
  // so the merged graph decomposes back into one independent component
  // per fabric (sim::TaskGraphSim::ComponentOf) and the sharded engine
  // runs the K event loops in parallel.
  RunnerCache cache;
  num_fabrics_ = fabrics;
  iterations_ = jobs.front().spec.iterations;
  seed_ = jobs.front().spec.seed;
  std::shared_ptr<sim::FlowNetwork> merged_flow;
  int gate_base = 0;
  std::size_t next = 0;
  for (int f = 0; f < fabrics; ++f) {
    const int size = base + (f < extra ? 1 : 0);
    MultiJobSpec spec;
    spec.jobs.assign(jobs.begin() + static_cast<std::ptrdiff_t>(next),
                     jobs.begin() + static_cast<std::ptrdiff_t>(next) + size);
    next += static_cast<std::size_t>(size);
    spec.Validate();
    SharedFabric fabric = BuildSharedFabric(spec.jobs, cache);

    // Simulation options are global to the merged run: every fabric must
    // agree on the knobs a single SimOptions carries. Gate enforcement
    // ORs across fabrics exactly as BuildSharedFabric ORs it across
    // co-located jobs.
    if (f == 0) {
      merged_options_ = fabric.options;
    } else {
      if (fabric.options.jitter_sigma != merged_options_.jitter_sigma ||
          fabric.options.out_of_order_probability !=
              merged_options_.out_of_order_probability) {
        Fail("fabric " + std::to_string(f) +
             " overrides jitter=/ooo= differently from fabric 0 — "
             "simulation options are global to a run");
      }
      merged_options_.enforce_gates |= fabric.options.enforce_gates;
    }

    Lowering& lowering = fabric.lowering;
    const auto task_base = static_cast<sim::TaskId>(merged_.tasks.size());
    const int resource_base = merged_.num_resources;
    const int worker_base = merged_.num_workers;
    merged_.tasks.Append(lowering.tasks, resource_base, gate_base,
                         worker_base);
    const std::vector<int>& groups = lowering.tasks.gate_group;
    const int max_gate =
        groups.empty() ? -1 : *std::max_element(groups.begin(), groups.end());
    for (std::size_t w = 0; w < lowering.worker_tasks.size(); ++w) {
      for (sim::TaskId& t : lowering.worker_tasks[w]) t += task_base;
      for (sim::TaskId& t : lowering.worker_recv_tasks[w]) t += task_base;
      merged_.worker_tasks.push_back(std::move(lowering.worker_tasks[w]));
      merged_.worker_recv_tasks.push_back(
          std::move(lowering.worker_recv_tasks[w]));
      merged_.transfer_param.push_back(std::move(lowering.transfer_param[w]));
    }
    // A fabric turns flow fairness on exactly when it has a flow network.
    if (lowering.flow) {
      if (!merged_flow) merged_flow = std::make_shared<sim::FlowNetwork>();
      const sim::FlowNetwork& flow = *lowering.flow;
      const int link_base = static_cast<int>(merged_flow->links.size());
      merged_flow->links.insert(merged_flow->links.end(), flow.links.begin(),
                                flow.links.end());
      // Both resource tables restart at resource_base (padding the
      // resources of flow-free fabrics before it with no links).
      const auto r_base = static_cast<std::size_t>(resource_base);
      merged_flow->resource_links.resize(r_base);
      merged_flow->resource_nominal_bps.resize(r_base, 0.0);
      for (const std::vector<int>& links : flow.resource_links) {
        for (int& link : merged_flow->resource_links.emplace_back(links)) {
          link += link_base;
        }
      }
      merged_flow->resource_nominal_bps.insert(
          merged_flow->resource_nominal_bps.end(),
          flow.resource_nominal_bps.begin(), flow.resource_nominal_bps.end());
    }
    merged_.num_resources += lowering.num_resources;
    merged_.num_workers += lowering.num_workers;
    gate_base += max_gate + 1;
    for (JobSlice job : lowering.jobs) {
      job.first_task += task_base;
      job.last_task += task_base;
      job.first_worker += worker_base;
      if (job.delay_task >= 0) job.delay_task += task_base;
      merged_.jobs.push_back(job);
    }
    samples_per_iteration_.insert(samples_per_iteration_.end(),
                                  fabric.samples_per_iteration.begin(),
                                  fabric.samples_per_iteration.end());
  }
  merged_.flow = merged_flow;
  merged_options_.network = merged_flow.get();
}

ClusterSweepResult ClusterSweep::Run() const {
  return Run(iterations_, seed_);
}

ClusterSweepResult ClusterSweep::Run(int iterations,
                                     std::uint64_t seed) const {
  const sim::TaskGraphSim sim = merged_.BuildSim();

  ClusterSweepResult result;
  result.jobs = num_jobs();
  result.fabrics = num_fabrics();
  result.iterations = iterations;
  // The partition depends only on the graph and the options: one for the
  // report and every iteration's sharded run.
  const std::vector<int> component = sim.ComponentOf(merged_options_);
  int max_component = -1;
  for (const int c : component) max_component = std::max(max_component, c);
  result.components = max_component + 1;

  // Per-job results, global job order (fabric-major).
  MultiJobResult runs = RunIterations(
      merged_, merged_options_, iterations, seed, /*whole=*/false,
      ShardedRun{options_.num_threads, component}, &sim);
  std::vector<ExperimentResult>& per_job = runs.jobs;
  for (std::size_t g = 0; g < per_job.size(); ++g) {
    per_job[g].samples_per_iteration = samples_per_iteration_[g];
  }
  double makespan_sum = 0.0;
  for (const IterationStats& run : runs.combined.iterations) {
    makespan_sum += run.makespan;
  }
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
