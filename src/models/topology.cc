#include "models/topology.h"

#include <algorithm>
#include <cmath>
#include <stdexcept>
#include <string>

namespace tictac::models {

void FatTreeOptions::Validate() const {
  if (pods < 1) {
    throw std::invalid_argument(
        "FatTreeOptions: pods must be >= 1 (1 = single non-blocking "
        "switch), got " +
        std::to_string(pods));
  }
  if (!(oversubscription > 0.0) || !std::isfinite(oversubscription)) {
    throw std::invalid_argument(
        "FatTreeOptions: oversubscription must be a positive finite ratio "
        "(1 = full bisection bandwidth), got " +
        std::to_string(oversubscription));
  }
}

int PodOf(int index, int count, int pods) {
  return static_cast<int>(
      (static_cast<long long>(index) * pods) / count);
}

namespace {

void ValidateShape(const FabricShape& shape, const FatTreeOptions& options) {
  options.Validate();
  if (shape.num_workers < 1 || shape.num_ps < 1) {
    throw std::invalid_argument(
        "FabricShape: needs at least one worker and one PS, got workers=" +
        std::to_string(shape.num_workers) +
        " ps=" + std::to_string(shape.num_ps));
  }
  if (!(shape.bandwidth_bps > 0.0) || !std::isfinite(shape.bandwidth_bps)) {
    throw std::invalid_argument(
        "FabricShape: bandwidth_bps must be positive and finite, got " +
        std::to_string(shape.bandwidth_bps));
  }
  const int hosts = shape.num_workers + shape.num_ps;
  if (options.pods > hosts) {
    throw std::invalid_argument(
        "FatTreeOptions: pods=" + std::to_string(options.pods) +
        " exceeds the fabric's " + std::to_string(hosts) +
        " hosts (" + std::to_string(shape.num_workers) + " workers + " +
        std::to_string(shape.num_ps) +
        " PSes) — some pods would be empty; lower pods= or grow the "
        "cluster");
  }
}

}  // namespace

sim::FlowNetwork BuildFatTreeFlowNetwork(const FabricShape& shape,
                                         const FatTreeOptions& options) {
  ValidateShape(shape, options);
  const int W = shape.num_workers;
  const int S = shape.num_ps;
  const int pods = options.pods;
  const double line_rate = shape.bandwidth_bps;

  // Link layout: worker ingress [0,W), worker egress [W,2W), PS egress
  // [2W,2W+S), PS ingress [2W+S,2W+2S), then per-pod core uplinks and
  // downlinks (only when pods > 1).
  const int worker_in = 0;
  const int worker_out = worker_in + W;
  const int ps_out = worker_out + W;
  const int ps_in = ps_out + S;
  const int core_up = ps_in + S;
  const int core_down = core_up + (pods > 1 ? pods : 0);
  const int num_links = core_down + (pods > 1 ? pods : 0);
  sim::FlowNetwork network;
  network.links.reserve(static_cast<std::size_t>(num_links));
  network.links.assign(static_cast<std::size_t>(2 * W + 2 * S), {line_rate});
  std::vector<int> worker_pod(static_cast<std::size_t>(W), 0);
  std::vector<int> ps_pod(static_cast<std::size_t>(S), 0);
  if (pods > 1) {
    // Hosts split contiguously: workers first, then PSes, each class on
    // its own floor(index*pods/count) assignment, so co-located jobs'
    // contiguous worker ranges land in contiguous pods.
    std::vector<int> pod_hosts(static_cast<std::size_t>(pods), 0);
    for (int w = 0; w < W; ++w) {
      worker_pod[static_cast<std::size_t>(w)] = PodOf(w, W, pods);
      ++pod_hosts[static_cast<std::size_t>(worker_pod[
          static_cast<std::size_t>(w)])];
    }
    for (int s = 0; s < S; ++s) {
      ps_pod[static_cast<std::size_t>(s)] = PodOf(s, S, pods);
      ++pod_hosts[static_cast<std::size_t>(ps_pod[
          static_cast<std::size_t>(s)])];
    }
    for (int direction = 0; direction < 2; ++direction) {
      for (int p = 0; p < pods; ++p) {
        network.links.push_back(
            {pod_hosts[static_cast<std::size_t>(p)] * line_rate /
             options.oversubscription});
      }
    }
  }

  // Channel resource ids (runtime/lowering.h layout) -> traversed links.
  const int downlink_base = W;
  const int uplink_base = W + W * S;
  const auto block_end = static_cast<std::size_t>(W + 2 * W * S + S);
  network.resource_links.resize(block_end);
  network.resource_nominal_bps.resize(block_end, 0.0);
  const double nominal = line_rate / W;
  for (int w = 0; w < W; ++w) {
    for (int s = 0; s < S; ++s) {
      const bool cross_pod =
          pods > 1 && worker_pod[static_cast<std::size_t>(w)] !=
                          ps_pod[static_cast<std::size_t>(s)];
      const auto down = static_cast<std::size_t>(downlink_base + w * S + s);
      auto& down_links = network.resource_links[down];
      down_links = {ps_out + s, worker_in + w};
      if (cross_pod) {
        down_links.push_back(core_up + ps_pod[static_cast<std::size_t>(s)]);
        down_links.push_back(core_down +
                             worker_pod[static_cast<std::size_t>(w)]);
      }
      std::sort(down_links.begin(), down_links.end());
      network.resource_nominal_bps[down] = nominal;

      const auto up = static_cast<std::size_t>(uplink_base + w * S + s);
      auto& up_links = network.resource_links[up];
      up_links = {worker_out + w, ps_in + s};
      if (cross_pod) {
        up_links.push_back(core_up + worker_pod[static_cast<std::size_t>(w)]);
        up_links.push_back(core_down + ps_pod[static_cast<std::size_t>(s)]);
      }
      std::sort(up_links.begin(), up_links.end());
      network.resource_nominal_bps[up] = nominal;
    }
  }
  return network;
}

}  // namespace tictac::models
