#include "harness/session.h"

#include <algorithm>
#include <stdexcept>
#include <thread>

#include "util/csv.h"
#include "util/json.h"
#include "util/parallel.h"
#include "util/stats.h"

namespace tictac::harness {
namespace {

// Lossless (shortest-round-trip) double formatting so emitted tables
// support bit-identity comparisons across runs.
using runtime::FormatDouble;
using util::JsonEscape;

ResultRow MakeRow(const runtime::ExperimentSpec& spec,
                  const runtime::ExperimentResult& result) {
  ResultRow row;
  row.spec = spec;
  row.mean_iteration_s = result.MeanIterationTime();
  row.throughput = result.Throughput();
  row.mean_efficiency = result.MeanEfficiency();
  row.mean_overlap = result.MeanOverlap();
  row.max_straggler_pct = result.MaxStragglerPct();
  row.mean_straggler_pct = result.MeanStragglerPct();
  row.unique_recv_orders = result.UniqueRecvOrders();
  return row;
}

}  // namespace

std::vector<std::string> FigureModels() {
  return {
      "AlexNet v2",    "Inception v1", "Inception v2",
      "Inception v3",  "ResNet-50 v1", "ResNet-101 v1",
      "ResNet-50 v2",  "VGG-16",       "VGG-19",
  };
}

double ResultTable::SpeedupVsBaseline(const ResultRow& row) const {
  runtime::ExperimentSpec baseline = row.spec;
  baseline.policy = "baseline";
  for (const ResultRow& candidate : rows_) {
    if (candidate.spec == baseline) {
      return candidate.throughput > 0.0
                 ? row.throughput / candidate.throughput - 1.0
                 : 0.0;
    }
  }
  throw std::invalid_argument(
      "ResultTable: no baseline row matches '" + baseline.ToString() +
      "' — include policy \"baseline\" in the sweep to compute speedups");
}

std::string ResultTable::ToCsv() const {
  std::string csv =
      "spec,model,env,workers,ps,task,batch_factor,chunk_bytes,enforcement,"
      "policy,iterations,seed,mean_iteration_s,throughput,mean_efficiency,"
      "mean_overlap,max_straggler_pct,mean_straggler_pct,"
      "unique_recv_orders\n";
  for (const ResultRow& row : rows_) {
    const runtime::ClusterSpec& cluster = row.spec.cluster;
    csv += util::CsvEscape(row.spec.ToString());
    csv += ',' + util::CsvEscape(row.spec.model);
    csv += ',' + cluster.env;
    csv += ',' + std::to_string(cluster.workers);
    csv += ',' + std::to_string(cluster.ps);
    csv += ',' + std::string(cluster.training ? "training" : "inference");
    csv += ',' + FormatDouble(cluster.batch_factor);
    csv += ',' + std::to_string(cluster.chunk_bytes);
    csv += ',' + std::string(runtime::EnforcementToken(cluster.enforcement));
    csv += ',' + util::CsvEscape(row.spec.policy);
    csv += ',' + std::to_string(row.spec.iterations);
    csv += ',' + std::to_string(row.spec.seed);
    csv += ',' + FormatDouble(row.mean_iteration_s);
    csv += ',' + FormatDouble(row.throughput);
    csv += ',' + FormatDouble(row.mean_efficiency);
    csv += ',' + FormatDouble(row.mean_overlap);
    csv += ',' + FormatDouble(row.max_straggler_pct);
    csv += ',' + FormatDouble(row.mean_straggler_pct);
    csv += ',' + std::to_string(row.unique_recv_orders);
    csv += '\n';
  }
  return csv;
}

std::string ResultTable::ToJson() const {
  std::string json = "[";
  for (std::size_t i = 0; i < rows_.size(); ++i) {
    const ResultRow& row = rows_[i];
    const runtime::ClusterSpec& cluster = row.spec.cluster;
    json += i == 0 ? "\n" : ",\n";
    json += "  {\"spec\": \"" + JsonEscape(row.spec.ToString()) + "\"";
    json += ", \"model\": \"" + JsonEscape(row.spec.model) + "\"";
    json += ", \"env\": \"" + cluster.env + "\"";
    json += ", \"workers\": " + std::to_string(cluster.workers);
    json += ", \"ps\": " + std::to_string(cluster.ps);
    json += ", \"task\": \"" +
            std::string(cluster.training ? "training" : "inference") + "\"";
    json += ", \"batch_factor\": " + FormatDouble(cluster.batch_factor);
    json += ", \"chunk_bytes\": " + std::to_string(cluster.chunk_bytes);
    json += ", \"enforcement\": \"" +
            std::string(runtime::EnforcementToken(cluster.enforcement)) +
            "\"";
    json += ", \"policy\": \"" + JsonEscape(row.spec.policy) + "\"";
    json += ", \"iterations\": " + std::to_string(row.spec.iterations);
    json += ", \"seed\": " + std::to_string(row.spec.seed);
    json += ", \"mean_iteration_s\": " + FormatDouble(row.mean_iteration_s);
    json += ", \"throughput\": " + FormatDouble(row.throughput);
    json += ", \"mean_efficiency\": " + FormatDouble(row.mean_efficiency);
    json += ", \"mean_overlap\": " + FormatDouble(row.mean_overlap);
    json += ", \"max_straggler_pct\": " + FormatDouble(row.max_straggler_pct);
    json +=
        ", \"mean_straggler_pct\": " + FormatDouble(row.mean_straggler_pct);
    json +=
        ", \"unique_recv_orders\": " + std::to_string(row.unique_recv_orders);
    json += "}";
  }
  json += "\n]\n";
  return json;
}

util::Table ResultTable::ToTable() const {
  util::Table table({"Model", "Cluster", "Policy", "Iter (ms)",
                     "Throughput", "E", "Overlap", "Max straggler %"});
  for (const ResultRow& row : rows_) {
    table.AddRow({row.spec.model, row.spec.cluster.ToString(),
                  row.spec.policy, util::Fmt(row.mean_iteration_s * 1e3, 2),
                  util::Fmt(row.throughput, 1),
                  util::Fmt(row.mean_efficiency, 3),
                  util::Fmt(row.mean_overlap, 3),
                  util::Fmt(row.max_straggler_pct, 1)});
  }
  return table;
}

std::vector<double> MultiJobReport::IterationSlowdowns(std::size_t j) const {
  std::vector<double> ratios;
  if (j >= isolated.size() || j >= result.jobs.size()) return ratios;
  const auto& shared = result.jobs[j].iterations;
  const auto& alone = isolated[j].iterations;
  const std::size_t n = std::min(shared.size(), alone.size());
  ratios.reserve(n);
  for (std::size_t i = 0; i < n; ++i) {
    if (alone[i].makespan > 0.0) {
      ratios.push_back(shared[i].makespan / alone[i].makespan);
    }
  }
  return ratios;
}

util::Table MultiJobReport::ToTable() const {
  const bool have_isolated = !isolated.empty();
  std::vector<std::string> headers = {"Job",     "Model",     "Policy",
                                      "Offset",  "Iter (ms)", "Throughput",
                                      "E",       "Overlap"};
  if (have_isolated) {
    headers.push_back("Slowdown");
    headers.push_back("p50");
    headers.push_back("p99");
  }
  util::Table table(headers);
  for (std::size_t j = 0; j < result.jobs.size(); ++j) {
    const runtime::ExperimentSpec& job = spec.jobs[j].spec;
    std::vector<std::string> row = {
        std::to_string(j),
        job.model,
        job.policy,
        util::Fmt(spec.jobs[j].start_offset * 1e3, 1) + " ms",
        util::Fmt(result.jobs[j].MeanIterationTime() * 1e3, 2),
        util::Fmt(result.jobs[j].Throughput(), 1),
        util::Fmt(result.jobs[j].MeanEfficiency(), 3),
        util::Fmt(result.jobs[j].MeanOverlap(), 3)};
    if (have_isolated) {
      const std::vector<double> ratios = IterationSlowdowns(j);
      row.push_back(util::Fmt(interference.slowdown[j], 3) + "x");
      row.push_back(util::Fmt(util::Percentile(ratios, 0.5), 3) + "x");
      row.push_back(util::Fmt(util::Percentile(ratios, 0.99), 3) + "x");
    }
    table.AddRow(std::move(row));
  }
  return table;
}

std::string MultiJobReport::ToJson() const {
  const bool have_isolated = !isolated.empty();
  std::string json = "{\n";
  json += "  \"spec\": \"" + JsonEscape(spec.ToString()) + "\",\n";
  json += "  \"combined\": {\"mean_iteration_s\": " +
          FormatDouble(result.combined.MeanIterationTime()) +
          ", \"throughput\": " + FormatDouble(result.combined.Throughput()) +
          "},\n";
  json += "  \"jobs\": [";
  for (std::size_t j = 0; j < result.jobs.size(); ++j) {
    const runtime::ExperimentSpec& job = spec.jobs[j].spec;
    json += j == 0 ? "\n" : ",\n";
    json += "    {\"job\": " + std::to_string(j);
    json += ", \"model\": \"" + JsonEscape(job.model) + "\"";
    json += ", \"policy\": \"" + JsonEscape(job.policy) + "\"";
    json += ", \"start_offset_s\": " +
            FormatDouble(spec.jobs[j].start_offset);
    json += ", \"mean_iteration_s\": " +
            FormatDouble(result.jobs[j].MeanIterationTime());
    json += ", \"throughput\": " + FormatDouble(result.jobs[j].Throughput());
    json += ", \"mean_efficiency\": " +
            FormatDouble(result.jobs[j].MeanEfficiency());
    json += ", \"mean_overlap\": " +
            FormatDouble(result.jobs[j].MeanOverlap());
    if (have_isolated) {
      const std::vector<double> ratios = IterationSlowdowns(j);
      json += ", \"isolated_iteration_s\": " +
              FormatDouble(isolated[j].MeanIterationTime());
      json += ", \"slowdown\": " + FormatDouble(interference.slowdown[j]);
      json += ", \"p50_slowdown\": " +
              FormatDouble(util::Percentile(ratios, 0.5));
      json += ", \"p99_slowdown\": " +
              FormatDouble(util::Percentile(ratios, 0.99));
    }
    json += "}";
  }
  json += "\n  ]";
  if (have_isolated) {
    json += ",\n  \"mean_slowdown\": " +
            FormatDouble(interference.mean_slowdown);
    json += ",\n  \"max_slowdown\": " +
            FormatDouble(interference.max_slowdown);
    json += ",\n  \"p50_slowdown\": " +
            FormatDouble(util::Percentile(interference.slowdown, 0.5));
    json += ",\n  \"p99_slowdown\": " +
            FormatDouble(util::Percentile(interference.slowdown, 0.99));
    json += ",\n  \"fairness\": " + FormatDouble(interference.fairness);
  }
  json += "\n}\n";
  return json;
}

MultiJobReport Session::RunMultiJob(const runtime::MultiJobSpec& spec,
                                    bool with_isolated) {
  return RunMultiJob(runtime::MultiJobRunner(spec, &cache_),  // validates
                     with_isolated);
}

MultiJobReport Session::RunMultiJob(const runtime::MultiJobRunner& runner,
                                    bool with_isolated) {
  const runtime::MultiJobSpec& spec = runner.spec();
  MultiJobReport report;
  report.spec = spec;
  report.result = runner.Run();
  if (with_isolated) {
    report.isolated.reserve(spec.jobs.size());
    std::vector<double> shared;
    std::vector<double> isolated;
    for (std::size_t j = 0; j < spec.jobs.size(); ++j) {
      // One job alone on the fabric IS the single-job path (the
      // bandwidth scale degenerates to 1), so Run()'s cached Runner is
      // the isolated reference. Replicas ("2x{...}") are deterministic
      // duplicates of the same spec — simulate once, reuse the result.
      std::size_t twin = j;
      for (std::size_t k = 0; k < j; ++k) {
        if (spec.jobs[k].spec == spec.jobs[j].spec) {
          twin = k;
          break;
        }
      }
      if (twin < j) {
        report.isolated.push_back(report.isolated[twin]);
      } else {
        report.isolated.push_back(Run(spec.jobs[j].spec));
      }
      shared.push_back(report.result.jobs[j].MeanIterationTime());
      isolated.push_back(report.isolated.back().MeanIterationTime());
    }
    report.interference = core::ComputeInterference(shared, isolated);
  }
  return report;
}

const runtime::Runner& Session::runner(const runtime::ExperimentSpec& spec) {
  return cache_.runner(spec, spec.cluster.workers);
}

runtime::ExperimentResult Session::Run(const runtime::ExperimentSpec& spec) {
  if (spec.iterations < 1 || spec.iterations > runtime::kMaxIterations) {
    throw std::invalid_argument("Session: iterations must be in [1, " +
                                std::to_string(runtime::kMaxIterations) +
                                "], got " +
                                std::to_string(spec.iterations) + " in '" +
                                spec.ToString() + "'");
  }
  return runner(spec).Run(spec.policy, spec.iterations, spec.seed);
}

ResultTable Session::RunAll(const std::vector<runtime::ExperimentSpec>& specs,
                            int parallelism) {
  if (parallelism < 1) {
    throw std::invalid_argument("Session: parallelism must be >= 1, got " +
                                std::to_string(parallelism));
  }
  std::vector<ResultRow> rows(specs.size());
  util::ParallelFor(specs.size(), parallelism, [&](std::size_t i) {
    rows[i] = MakeRow(specs[i], Run(specs[i]));
  });
  return ResultTable(std::move(rows));
}

ResultTable Session::RunAll(const runtime::SweepSpec& sweep,
                            int parallelism) {
  return RunAll(sweep.Expand(), parallelism);
}

int Session::DefaultParallelism() {
  const unsigned hardware = std::thread::hardware_concurrency();
  return hardware == 0 ? 4 : static_cast<int>(hardware);
}

}  // namespace tictac::harness
