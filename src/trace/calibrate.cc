#include "trace/calibrate.h"

#include <algorithm>
#include <cmath>
#include <cstdint>
#include <stdexcept>
#include <string>
#include <vector>

#include "util/stats.h"

namespace tictac::trace {

Calibration CalibratePlatform(const runtime::Lowering& lowering,
                              const sim::SimResult& result,
                              const core::Graph& worker_graph,
                              int num_workers) {
  if (num_workers < 1) throw std::invalid_argument("num_workers must be >= 1");
  std::vector<double> bytes;
  std::vector<double> transfer_time;
  std::vector<double> compute_cost;
  std::vector<double> compute_time;
  double total_cost = 0.0;
  double total_compute_time = 0.0;

  for (sim::TaskId t : lowering.worker_tasks[0]) {
    const auto ti = static_cast<std::size_t>(t);
    const core::OpKind kind = lowering.tasks.kind[ti];
    const double duration = result.end[ti] - result.start[ti];
    const core::Op& op = worker_graph.op(lowering.tasks.op[ti]);
    if (core::IsCommunication(kind)) {
      bytes.push_back(static_cast<double>(op.bytes));
      transfer_time.push_back(duration);
    } else if (kind == core::OpKind::kCompute && op.cost > 0.0 &&
               duration > 0.0) {
      compute_cost.push_back(op.cost);
      compute_time.push_back(duration);
      total_cost += op.cost;
      total_compute_time += duration;
    }
  }
  const int compute_samples = static_cast<int>(compute_cost.size());
  if (bytes.size() < 2 || compute_samples == 0) {
    throw std::runtime_error("not enough samples to calibrate");
  }

  // util::FitLine returns the default fit (slope 0) on zero x-variance,
  // which the slope check below would misreport as a bad fit; the real
  // problem is a degenerate sample set, so diagnose it as such.
  const auto [min_bytes, max_bytes] =
      std::minmax_element(bytes.begin(), bytes.end());
  if (*min_bytes == *max_bytes) {
    throw std::runtime_error(
        "transfer calibration is degenerate: all " +
        std::to_string(bytes.size()) +
        " transfer samples have the same size (" +
        std::to_string(static_cast<std::int64_t>(*min_bytes)) +
        " bytes) — at least two distinct transfer sizes are needed to "
        "separate latency from bandwidth");
  }

  const util::LinearFit fit = util::FitLine(bytes, transfer_time);
  if (fit.slope <= 0.0) {
    throw std::runtime_error("transfer fit has non-positive slope");
  }

  Calibration calibration;
  // slope = 1 / (bandwidth / W)  =>  bandwidth = W / slope.
  calibration.platform.bandwidth_bps =
      static_cast<double>(num_workers) / fit.slope;
  calibration.platform.latency_s = std::max(0.0, fit.intercept);
  calibration.platform.compute_rate = total_cost / total_compute_time;
  calibration.transfer_fit_r2 = fit.r2;
  calibration.transfer_samples = static_cast<int>(bytes.size());
  calibration.compute_samples = compute_samples;

  // Per-constant residuals (satellite of the exec validation loop): how
  // far the fitted line / rate sit from the individual samples, so a
  // consumer can distinguish "constants recovered" from "fit forced
  // through noise".
  double transfer_abs = 0.0;
  for (std::size_t i = 0; i < bytes.size(); ++i) {
    transfer_abs +=
        std::abs(transfer_time[i] - (fit.intercept + fit.slope * bytes[i]));
  }
  calibration.transfer_mean_abs_residual_s =
      transfer_abs / static_cast<double>(bytes.size());

  const double rate = calibration.platform.compute_rate;
  const double mean_time =
      total_compute_time / static_cast<double>(compute_samples);
  double sse = 0.0;
  double sst = 0.0;
  double compute_abs = 0.0;
  for (std::size_t i = 0; i < compute_cost.size(); ++i) {
    const double fitted = compute_cost[i] / rate;
    sse += (compute_time[i] - fitted) * (compute_time[i] - fitted);
    sst += (compute_time[i] - mean_time) * (compute_time[i] - mean_time);
    compute_abs += std::abs(compute_time[i] - fitted);
  }
  calibration.compute_mean_abs_residual_s =
      compute_abs / static_cast<double>(compute_samples);
  // Through-origin R²: 1 - SSE/SST about the mean duration. A constant
  // sample set (SST == 0) is a perfect fit iff the rate reproduces it.
  calibration.compute_fit_r2 =
      sst > 0.0 ? 1.0 - sse / sst : (sse == 0.0 ? 1.0 : 0.0);
  return calibration;
}

}  // namespace tictac::trace
