#include "exec/validate.h"

#include <algorithm>
#include <cmath>
#include <cstdio>
#include <stdexcept>
#include <utility>

#include "core/policy_registry.h"
#include "core/schedule.h"
#include "exec/ps_backend.h"
#include "models/zoo.h"
#include "runtime/lowering.h"
#include "runtime/runner.h"
#include "runtime/spec.h"
#include "util/json.h"

namespace tictac::exec {
namespace {

// Synthetic one-shot result carrying per-task durations averaged across
// the measured iterations (start=0, end=mean), the shape
// trace::CalibratePlatform reads durations from.
sim::SimResult MeanDurations(const ExecutionTrace& trace) {
  sim::SimResult mean;
  const std::size_t n = trace.iterations.front().start.size();
  mean.start.assign(n, 0.0);
  mean.end.assign(n, 0.0);
  for (const sim::SimResult& it : trace.iterations) {
    for (std::size_t t = 0; t < n; ++t) {
      mean.end[t] += it.end[t] - it.start[t];
    }
  }
  for (std::size_t t = 0; t < n; ++t) {
    mean.end[t] /= static_cast<double>(trace.iterations.size());
  }
  return mean;
}

double ErrorPct(double predicted, double measured) {
  return measured > 0.0 ? 100.0 * std::abs(predicted - measured) / measured
                        : 0.0;
}

// Worker 0's gated parameter order, by gate rank; empty when ungated.
std::vector<int> ExpectedHandoffOrder(const runtime::Lowering& lowering) {
  std::vector<std::pair<int, int>> by_rank;  // (rank, param)
  const auto& recvs = lowering.worker_recv_tasks[0];
  const auto& params = lowering.transfer_param[0];
  for (std::size_t i = 0; i < recvs.size(); ++i) {
    const auto t = static_cast<std::size_t>(recvs[i]);
    if (lowering.tasks.gate_group[t] >= 0) {
      by_rank.emplace_back(lowering.tasks.gate_rank[t], params[i]);
    }
  }
  std::sort(by_rank.begin(), by_rank.end());
  std::vector<int> expected;
  expected.reserve(by_rank.size());
  for (const auto& [rank, param] : by_rank) expected.push_back(param);
  return expected;
}

void AppendCalibrationJson(std::string& out, const trace::Calibration& cal,
                           bool ok) {
  using runtime::FormatDouble;
  out += "{\"bandwidth_bps\":" + FormatDouble(cal.platform.bandwidth_bps);
  out += ",\"latency_s\":" + FormatDouble(cal.platform.latency_s);
  out += ",\"compute_rate\":" + FormatDouble(cal.platform.compute_rate);
  out += ",\"transfer_fit_r2\":" + FormatDouble(cal.transfer_fit_r2);
  out += ",\"compute_fit_r2\":" + FormatDouble(cal.compute_fit_r2);
  out += ",\"transfer_mean_abs_residual_s\":" +
         FormatDouble(cal.transfer_mean_abs_residual_s);
  out += ",\"compute_mean_abs_residual_s\":" +
         FormatDouble(cal.compute_mean_abs_residual_s);
  out += ",\"transfer_samples\":" + std::to_string(cal.transfer_samples);
  out += ",\"compute_samples\":" + std::to_string(cal.compute_samples);
  out += ",\"ok\":";
  out += ok ? "true" : "false";
  out += "}";
}

}  // namespace

double ExecReport::MeanAbsErrorPct() const {
  if (policies.empty()) return 0.0;
  double sum = 0.0;
  for (const PolicyValidation& row : policies) sum += row.error_pct;
  return sum / static_cast<double>(policies.size());
}

std::string ExecReport::ToTable() const {
  char line[256];
  std::string out;
  std::snprintf(line, sizeof(line),
                "exec validation: model=%s workers=%d ps=%d iters=%d seed=%llu "
                "clock=%s\n",
                spec.model.c_str(), spec.num_workers, spec.num_ps,
                spec.iterations, static_cast<unsigned long long>(spec.seed),
                spec.deterministic ? "virtual" : "wall");
  out += line;
  std::snprintf(line, sizeof(line), "%-12s %12s %12s %8s %12s %10s %6s\n",
                "policy", "measured(s)", "predicted(s)", "err%", "uncal(s)",
                "uncal-err%", "fit");
  out += line;
  for (const PolicyValidation& row : policies) {
    std::snprintf(line, sizeof(line),
                  "%-12s %12.6f %12.6f %8.2f %12.6f %10.2f %6s\n",
                  row.policy.c_str(), row.measured_s, row.predicted_s,
                  row.error_pct, row.uncalibrated_s,
                  row.uncalibrated_error_pct,
                  row.calibration_ok ? "ok" : "POOR");
    out += line;
  }
  std::snprintf(line, sizeof(line), "mean abs prediction error: %.2f%%\n",
                MeanAbsErrorPct());
  out += line;
  return out;
}

std::string ExecReport::ToJson() const {
  using runtime::FormatDouble;
  std::string out = "{\"exec\":{";
  out += "\"model\":\"" + util::JsonEscape(spec.model) + "\"";
  out += ",\"workers\":" + std::to_string(spec.num_workers);
  out += ",\"ps\":" + std::to_string(spec.num_ps);
  out += ",\"iterations\":" + std::to_string(spec.iterations);
  out += ",\"seed\":" + std::to_string(spec.seed);
  out += ",\"deterministic\":";
  out += spec.deterministic ? "true" : "false";
  out += ",\"link_jitter_sigma\":" + FormatDouble(spec.link_jitter_sigma);
  out += ",\"straggler_factors\":[";
  for (std::size_t i = 0; i < spec.straggler_factors.size(); ++i) {
    if (i > 0) out += ",";
    out += FormatDouble(spec.straggler_factors[i]);
  }
  out += "],\"policies\":[";
  for (std::size_t i = 0; i < policies.size(); ++i) {
    const PolicyValidation& row = policies[i];
    if (i > 0) out += ",";
    out += "{\"policy\":\"" + util::JsonEscape(row.policy) + "\"";
    out += ",\"measured_s\":" + FormatDouble(row.measured_s);
    out += ",\"predicted_s\":" + FormatDouble(row.predicted_s);
    out += ",\"prediction_error_pct\":" + FormatDouble(row.error_pct);
    out += ",\"uncalibrated_s\":" + FormatDouble(row.uncalibrated_s);
    out += ",\"uncalibrated_error_pct\":" +
           FormatDouble(row.uncalibrated_error_pct);
    out += ",\"calibration\":";
    AppendCalibrationJson(out, row.calibration, row.calibration_ok);
    out += ",\"handoff_order\":[";
    for (std::size_t j = 0; j < row.handoff_order.size(); ++j) {
      if (j > 0) out += ",";
      out += std::to_string(row.handoff_order[j]);
    }
    out += "],\"order_matches_schedule\":";
    out += row.order_matches_schedule ? "true" : "false";
    out += ",\"final_loss\":" + FormatDouble(row.final_loss);
    out += ",\"final_accuracy\":" + FormatDouble(row.final_accuracy);
    out += "}";
  }
  out += "],\"mean_abs_prediction_error_pct\":" +
         FormatDouble(MeanAbsErrorPct());
  out += "}}";
  return out;
}

ExecReport ValidateAgainstSim(const ExecSpec& spec) {
  // The backend runs one thread per lowered resource; refuse an oversized
  // cluster before building or lowering anything for it. Bounding w and s
  // first keeps 2·w·s in range; sizes < 1 are ClusterConfig's to reject.
  const long long w = spec.num_workers;
  const long long s = spec.num_ps;
  if (w > 0 && s > 0 &&
      (w > kMaxBackendThreads || s > kMaxBackendThreads ||
       w + 2 * w * s + s > kMaxBackendThreads)) {
    throw std::invalid_argument(
        "exec: workers=" + std::to_string(w) + " and ps=" + std::to_string(s) +
        " need workers + 2*workers*ps + ps backend threads, more than "
        "kMaxBackendThreads = " + std::to_string(kMaxBackendThreads));
  }
  const models::ModelInfo& model = models::FindModel(spec.model);
  runtime::ClusterConfig config;
  config.num_workers = spec.num_workers;
  config.num_ps = spec.num_ps;
  config.training = spec.training;
  config.platform = spec.platform;
  const runtime::Runner runner(model, config);
  const core::Graph& graph = runner.worker_graph();

  ExecReport report;
  report.spec = spec;
  for (const std::string& policy_spec : spec.policies) {
    const auto policy = core::PolicyRegistry::Global().Create(policy_spec);
    const core::Schedule schedule = runner.MakeSchedule(*policy);
    const runtime::Lowering lowering = runtime::LowerCluster(
        graph, schedule, runner.ps_of_param(), config);

    BackendOptions options;
    options.iterations = spec.iterations;
    options.seed = spec.seed;
    options.deterministic_clock = spec.deterministic;
    options.assumed = config.platform;
    options.straggler_factors = spec.straggler_factors;
    options.link_jitter_sigma = spec.link_jitter_sigma;
    options.work_scale = spec.work_scale;
    options.wire_scale = spec.wire_scale;
    PsBackend backend(lowering, graph, options);
    const ExecutionTrace trace = backend.Run();

    PolicyValidation row;
    row.policy = policy_spec;
    row.measured_s = trace.MeanIterationTime();
    row.handoff_order = trace.handoff_order.front();
    if (!trace.loss.empty()) row.final_loss = trace.loss.back();
    row.final_accuracy = trace.final_accuracy;

    // §5.1 enforcement check: the order worker 0 actually initiated its
    // pulls in must equal the schedule's normalized order.
    const std::vector<int> expected = ExpectedHandoffOrder(lowering);
    row.order_matches_schedule = row.handoff_order == expected;

    // Fit platform constants from the measured trace.
    row.calibration = trace::CalibratePlatform(
        lowering, MeanDurations(trace), graph, spec.num_workers);
    // Worker 0 is the calibration witness; if the straggler knob targets
    // it, its factor leaks into the fitted rate — divide it back out,
    // the knob is modeled separately through worker speed factors.
    if (!spec.straggler_factors.empty() && spec.straggler_factors[0] > 1.0) {
      row.calibration.platform.compute_rate *= spec.straggler_factors[0];
    }
    row.calibration_ok = row.calibration.GoodFit();

    sim::SimOptions sim_options;
    sim_options.enforce_gates =
        schedule.size() == graph.size() && schedule.CoversAllRecvs(graph);

    // Predicted: re-lower on the fitted platform, with the simulator
    // tracking the straggler knob as per-worker speed factors.
    runtime::ClusterConfig fitted = config;
    fitted.platform = row.calibration.platform;
    fitted.platform.ps_op_time_s = config.platform.ps_op_time_s;  // not fitted
    if (!spec.straggler_factors.empty()) {
      fitted.worker_speed_factors.assign(
          static_cast<std::size_t>(spec.num_workers), 1.0);
      for (std::size_t w = 0; w < spec.straggler_factors.size(); ++w) {
        fitted.worker_speed_factors[w] = 1.0 / spec.straggler_factors[w];
      }
    }
    const runtime::Lowering fitted_lowering = runtime::LowerCluster(
        graph, schedule, runner.ps_of_param(), fitted);
    row.predicted_s =
        fitted_lowering.BuildSim().Run(sim_options, spec.seed).makespan;
    row.error_pct = ErrorPct(row.predicted_s, row.measured_s);

    // The contrast figure: what the simulator would predict without ever
    // measuring (assumed constants, knobs untracked).
    row.uncalibrated_s = lowering.BuildSim().Run(sim_options, spec.seed).makespan;
    row.uncalibrated_error_pct = ErrorPct(row.uncalibrated_s, row.measured_s);

    report.policies.push_back(std::move(row));
  }
  return report;
}

}  // namespace tictac::exec
