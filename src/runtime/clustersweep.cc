#include "runtime/clustersweep.h"

#include <algorithm>
#include <cmath>
#include <stdexcept>

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
  RunnerCache cache;
  fabrics_.reserve(static_cast<std::size_t>(fabrics));
  std::size_t next = 0;
  for (int f = 0; f < fabrics; ++f) {
    const int size = base + (f < extra ? 1 : 0);
    MultiJobSpec spec;
    spec.jobs.assign(jobs.begin() + static_cast<std::ptrdiff_t>(next),
                     jobs.begin() + static_cast<std::ptrdiff_t>(next) + size);
    next += static_cast<std::size_t>(size);
    fabrics_.push_back(
        std::make_unique<MultiJobRunner>(std::move(spec), &cache));
  }

  // Simulation options are global to the merged run: every fabric must
  // agree on the knobs a single SimOptions carries. Gate enforcement
  // ORs across fabrics exactly as MultiJobRunner ORs it across
  // co-located jobs.
  const sim::SimOptions& head = fabrics_.front()->fabric().options;
  merged_options_ = head;
  for (std::size_t f = 1; f < fabrics_.size(); ++f) {
    const sim::SimOptions& other = fabrics_[f]->fabric().options;
    if (other.jitter_sigma != head.jitter_sigma ||
        other.out_of_order_probability != head.out_of_order_probability) {
      Fail("fabric " + std::to_string(f) +
           " overrides jitter=/ooo= differently from fabric 0 — simulation "
           "options are global to a run");
    }
    merged_options_.enforce_gates |= other.enforce_gates;
    merged_options_.flow_fairness |= other.flow_fairness;
  }

  // Merge the per-fabric lowerings: disjoint task, resource, gate-group
  // and flow-link id ranges, so the merged graph decomposes back into
  // one independent component per fabric (sim::TaskGraphSim::ComponentOf)
  // and the sharded engine runs the K event loops in parallel.
  fabric_slices_.reserve(fabrics_.size());
  // A fabric turns flow fairness on exactly when it has a flow network.
  if (merged_options_.flow_fairness) {
    merged_flow_ = std::make_shared<sim::FlowNetwork>();
  }
  int gate_base = 0;
  for (const auto& fabric : fabrics_) {
    const Lowering& lowering = fabric->fabric().lowering.combined;
    const auto task_base = static_cast<sim::TaskId>(merged_tasks_.size());
    const int resource_base = merged_resources_;
    int max_gate = -1;
    for (const sim::Task& task : lowering.tasks) {
      sim::Task merged = task;
      merged.resource += resource_base;
      for (sim::TaskId& pred : merged.preds) pred += task_base;
      if (merged.gate_group >= 0) {
        max_gate = std::max(max_gate, merged.gate_group);
        merged.gate_group += gate_base;
      }
      merged_tasks_.push_back(std::move(merged));
    }
    if (merged_flow_ && lowering.flow) {
      const sim::FlowNetwork& flow = *lowering.flow;
      const int link_base = static_cast<int>(merged_flow_->links.size());
      merged_flow_->links.insert(merged_flow_->links.end(),
                                 flow.links.begin(), flow.links.end());
      merged_flow_->resource_links.resize(
          static_cast<std::size_t>(resource_base) + flow.resource_links.size());
      merged_flow_->resource_nominal_bps.resize(
          merged_flow_->resource_links.size(), 0.0);
      for (std::size_t r = 0; r < flow.resource_links.size(); ++r) {
        if (flow.resource_links[r].empty()) continue;
        auto& links =
            merged_flow_->resource_links[static_cast<std::size_t>(resource_base) + r];
        links = flow.resource_links[r];
        for (int& link : links) link += link_base;
        merged_flow_->resource_nominal_bps
            [static_cast<std::size_t>(resource_base) + r] =
            flow.resource_nominal_bps[r];
      }
    }
    merged_resources_ += lowering.num_resources;
    gate_base += max_gate + 1;
    MultiJobLowering::JobSlice& slice = fabric_slices_.emplace_back();
    slice.first_task = task_base;
    slice.last_task = static_cast<sim::TaskId>(merged_tasks_.size());
  }
  merged_options_.network = merged_flow_.get();
}

int ClusterSweep::num_jobs() const {
  int total = 0;
  for (const auto& fabric : fabrics_) {
    total += static_cast<int>(fabric->spec().jobs.size());
  }
  return total;
}

ClusterSweepResult ClusterSweep::Run() const {
  const ExperimentSpec& head = fabrics_.front()->spec().jobs.front().spec;
  return Run(head.iterations, head.seed);
}

ClusterSweepResult ClusterSweep::Run(int iterations,
                                     std::uint64_t seed) const {
  if (iterations < 1 || iterations > kMaxIterations) {
    Fail("iterations must be in [1, " + std::to_string(kMaxIterations) +
         "], got " + std::to_string(iterations));
  }
  const sim::TaskGraphSim sim(merged_tasks_, merged_resources_);

  ClusterSweepResult result;
  result.jobs = num_jobs();
  result.fabrics = num_fabrics();
  result.iterations = iterations;
  {
    const std::vector<int> component = sim.ComponentOf(merged_options_);
    int max_component = -1;
    for (const int c : component) max_component = std::max(max_component, c);
    result.components = max_component + 1;
  }

  // Per-job accumulators, global job order (fabric-major).
  std::vector<ExperimentResult> per_job;
  per_job.reserve(static_cast<std::size_t>(result.jobs));
  for (const auto& fabric : fabrics_) {
    for (const double samples : fabric->fabric().samples_per_iteration) {
      ExperimentResult& job = per_job.emplace_back();
      job.samples_per_iteration = samples;
      job.iterations.reserve(static_cast<std::size_t>(iterations));
    }
  }

  double makespan_sum = 0.0;
  for (int i = 0; i < iterations; ++i) {
    const sim::SimResult run = sim.RunParallel(
        merged_options_, seed + static_cast<std::uint64_t>(i),
        options_.num_threads);
    makespan_sum += run.makespan;
    std::size_t g = 0;
    for (std::size_t f = 0; f < fabrics_.size(); ++f) {
      // Cut the fabric's task range back out so the per-fabric slices
      // (fabric-local task ids) apply unchanged.
      const sim::SimResult fabric_run = SliceResult(run, fabric_slices_[f]);
      const MultiJobLowering& lowering = fabrics_[f]->fabric().lowering;
      for (const MultiJobLowering::JobSlice& slice : lowering.jobs) {
        const sim::SimResult sliced = SliceResult(fabric_run, slice);
        per_job[g].iterations.push_back(
            ComputeIterationStats(slice.lowering, sliced));
        ++g;
      }
    }
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
