#include "core/metrics.h"

#include <algorithm>
#include <stdexcept>
#include <string>
#include <unordered_map>

namespace tictac::core {

MakespanBounds ComputeBounds(const Graph& graph, const TimeOracle& oracle) {
  MakespanBounds bounds;
  std::unordered_map<int, double> per_resource;
  for (const Op& op : graph.ops()) {
    const double t = oracle.Time(graph, op.id);
    bounds.upper += t;
    int resource = op.resource;
    if (resource < 0) resource = IsCommunication(op.kind) ? 1 : 0;
    per_resource[resource] += t;
  }
  for (const auto& [resource, total] : per_resource) {
    bounds.lower = std::max(bounds.lower, total);
  }
  return bounds;
}

double Efficiency(const MakespanBounds& bounds, double makespan) {
  const double range = bounds.upper - bounds.lower;
  if (range <= 0.0) return 1.0;
  return (bounds.upper - makespan) / range;
}

double Speedup(const MakespanBounds& bounds) {
  if (bounds.lower <= 0.0) return 0.0;
  return (bounds.upper - bounds.lower) / bounds.lower;
}

double JainFairness(const std::vector<double>& shares) {
  double sum = 0.0;
  double sum_sq = 0.0;
  for (std::size_t i = 0; i < shares.size(); ++i) {
    if (!(shares[i] >= 0.0)) {  // negation also rejects NaN
      throw std::invalid_argument("JainFairness: shares[" + std::to_string(i) +
                                  "] must be >= 0, got " +
                                  std::to_string(shares[i]));
    }
    sum += shares[i];
    sum_sq += shares[i] * shares[i];
  }
  if (sum_sq == 0.0) return 1.0;  // empty or all-zero: nothing to divide
  // At most 1 in exact arithmetic; the rounded quotient can land one ulp
  // above it on near-equal shares (five shares of 0.7 do).
  return std::min(
      1.0, sum * sum / (static_cast<double>(shares.size()) * sum_sq));
}

InterferenceStats ComputeInterference(const std::vector<double>& shared,
                                      const std::vector<double>& isolated) {
  if (shared.empty() || shared.size() != isolated.size()) {
    throw std::invalid_argument(
        "ComputeInterference: need matching non-empty per-job times, got " +
        std::to_string(shared.size()) + " shared vs " +
        std::to_string(isolated.size()) + " isolated");
  }
  InterferenceStats stats;
  stats.slowdown.reserve(shared.size());
  stats.normalized_progress.reserve(shared.size());
  double sum = 0.0;
  double max = 0.0;
  for (std::size_t j = 0; j < shared.size(); ++j) {
    if (!(shared[j] > 0.0) || !(isolated[j] > 0.0)) {
      throw std::invalid_argument(
          "ComputeInterference: job " + std::to_string(j) +
          " iteration times must be > 0, got shared=" +
          std::to_string(shared[j]) + " isolated=" +
          std::to_string(isolated[j]));
    }
    const double slowdown = shared[j] / isolated[j];
    stats.slowdown.push_back(slowdown);
    stats.normalized_progress.push_back(isolated[j] / shared[j]);
    sum += slowdown;
    max = std::max(max, slowdown);
  }
  stats.mean_slowdown = sum / static_cast<double>(shared.size());
  stats.max_slowdown = max;
  stats.fairness = JainFairness(stats.normalized_progress);
  return stats;
}

}  // namespace tictac::core
