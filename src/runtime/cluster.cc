#include "runtime/cluster.h"

#include <cmath>
#include <stdexcept>
#include <string>

#include "util/parse.h"

namespace tictac::runtime {

const char* ToString(Enforcement enforcement) {
  switch (enforcement) {
    case Enforcement::kPriorityOnly: return "priority-only";
    case Enforcement::kHandoffGate: return "hand-off gate";
    case Enforcement::kDagChain: return "DAG chaining";
  }
  return "unknown";
}

const char* EnforcementToken(Enforcement enforcement) {
  switch (enforcement) {
    case Enforcement::kPriorityOnly: return "priority";
    case Enforcement::kHandoffGate: return "gate";
    case Enforcement::kDagChain: return "chain";
  }
  return "gate";
}

Enforcement ParseEnforcement(std::string_view token) {
  if (token == "priority") return Enforcement::kPriorityOnly;
  if (token == "gate") return Enforcement::kHandoffGate;
  if (token == "chain") return Enforcement::kDagChain;
  throw std::invalid_argument("unknown enforcement '" + std::string(token) +
                              "' (known: priority, gate, chain)");
}

const char* TopologyToken(Topology topology) {
  switch (topology) {
    case Topology::kPsFabric: return "ps";
    case Topology::kRing: return "ring";
  }
  return "ps";
}

Topology ParseTopology(std::string_view token) {
  if (token == "ps") return Topology::kPsFabric;
  if (token == "ring") return Topology::kRing;
  throw std::invalid_argument("unknown topology '" + std::string(token) +
                              "' (known: ps, ring)");
}

void ClusterConfig::Validate() const {
  const auto fail = [](const std::string& message) {
    throw std::invalid_argument("ClusterConfig: " + message);
  };
  if (num_workers < 1) {
    fail("num_workers must be >= 1, got " + std::to_string(num_workers));
  }
  if (num_ps < 1) {
    fail("num_ps must be >= 1, got " + std::to_string(num_ps));
  }
  if (!(batch_factor > 0.0) || std::isinf(batch_factor)) {
    fail("batch_factor must be a finite value > 0, got " +
         util::FormatDouble(batch_factor));
  }
  if (chunk_bytes < 0) {
    fail("chunk_bytes must be >= 0 (0 = chunking off), got " +
         std::to_string(chunk_bytes));
  }
  if (topology == Topology::kRing) {
    if (!training) {
      fail("topology=ring applies to training only (the all-reduce "
           "collective aggregates gradients; use topology=ps for "
           "inference)");
    }
    if (num_workers < 2) {
      fail("topology=ring needs num_workers >= 2 (a ring of one link is "
           "degenerate), got " + std::to_string(num_workers));
    }
  }
  // NaN fails every comparison, so these !(x >= ...) forms reject it too
  // — a NaN sigma would otherwise silently disable oracle noise.
  const auto check_sigma = [&](const char* field, double sigma) {
    if (!(sigma >= 0.0 && sigma <= kMaxNoiseSigma)) {
      fail(std::string(field) + " must be in [0, " +
           std::to_string(static_cast<int>(kMaxNoiseSigma)) + "], got " +
           util::FormatDouble(sigma));
    }
  };
  check_sigma("tac_oracle_sigma", tac_oracle_sigma);
  check_sigma("sim.jitter_sigma", sim.jitter_sigma);
  if (!(sim.out_of_order_probability >= 0.0 &&
        sim.out_of_order_probability <= 1.0)) {
    fail("sim.out_of_order_probability must be in [0, 1], got " +
         util::FormatDouble(sim.out_of_order_probability));
  }
  if (!worker_speed_factors.empty() &&
      worker_speed_factors.size() != static_cast<std::size_t>(num_workers)) {
    fail("worker_speed_factors must be empty (homogeneous) or hold one "
         "factor per worker: got " +
         std::to_string(worker_speed_factors.size()) + " factors for " +
         std::to_string(num_workers) + " workers");
  }
  for (std::size_t w = 0; w < worker_speed_factors.size(); ++w) {
    if (!(worker_speed_factors[w] > 0.0) ||
        std::isinf(worker_speed_factors[w])) {
      fail("worker_speed_factors[" + std::to_string(w) +
           "] must be a finite value > 0, got " +
           util::FormatDouble(worker_speed_factors[w]));
    }
  }
  if (fabric_pods < 1) {
    fail("fabric_pods must be >= 1 (1 = single non-blocking switch), got " +
         std::to_string(fabric_pods));
  }
  // fabric_pods vs host count is checked at lowering time against the
  // MERGED fabric (models/topology.h): co-located jobs pool their hosts,
  // so a per-job bound here would falsely reject valid multi-job configs.
  if (!(fabric_oversubscription > 0.0) ||
      std::isinf(fabric_oversubscription)) {
    fail("fabric_oversubscription must be a finite ratio > 0 (1 = full "
         "bisection bandwidth), got " +
         util::FormatDouble(fabric_oversubscription));
  }
  if (flow_fairness && topology == Topology::kRing) {
    fail("flow_fairness models the PS fabric's shared links; ring "
         "all-reduce has no flow network — use topology=ps or turn "
         "flow fairness off");
  }
}

ClusterConfig EnvG(int num_workers, int num_ps, bool training) {
  ClusterConfig config;
  config.num_workers = num_workers;
  config.num_ps = num_ps;
  config.training = training;
  config.platform.compute_rate = 4000.0;    // K80 fp32, ~4 TFLOP/s effective
  config.platform.bandwidth_bps = 1.25e9;   // ~10 Gb/s cloud fabric
  config.platform.latency_s = 200e-6;       // per-transfer RPC setup
  config.platform.ps_op_time_s = 5e-6;
  config.sim.jitter_sigma = 0.04;           // cloud timing variation
  config.sim.out_of_order_probability = 0.005;  // §5.1: ~0.4-0.5%
  return config;
}

ClusterConfig EnvC(int num_workers, int num_ps, bool training) {
  ClusterConfig config;
  config.num_workers = num_workers;
  config.num_ps = num_ps;
  config.training = training;
  config.platform.compute_rate = 600.0;     // 32-core CPU, ~0.6 TFLOP/s
  config.platform.bandwidth_bps = 1.25e8;   // 1 GbE
  config.platform.latency_s = 150e-6;
  config.platform.ps_op_time_s = 5e-6;
  config.sim.jitter_sigma = 0.02;
  config.sim.out_of_order_probability = 0.005;
  return config;
}

}  // namespace tictac::runtime
