// Cluster configuration and the two evaluation environments of Section 6.
//
// Scheduling policies are selected by core::PolicyRegistry spec strings
// ("baseline", "tic", "tac", "random:7", ...); see core/policy_registry.h.
#pragma once

#include <string_view>

#include "core/time_oracle.h"
#include "runtime/sharding.h"
#include "sim/task.h"

namespace tictac::runtime {

// Aggregation topology of the cluster: the paper's parameter-server
// fabric or the Horovod-style ring all-reduce comparison substrate, both
// lowered by runtime::LowerCluster (runtime/lowering.h).
enum class Topology {
  kPsFabric,
  kRing,
};

// Compact token, the `topology=` value of the spec grammar: "ps" | "ring".
const char* TopologyToken(Topology topology);

// Inverse of TopologyToken; throws std::invalid_argument listing the
// accepted tokens.
Topology ParseTopology(std::string_view token);

// How the transfer order is imposed on the runtime (§5.1 discusses the
// candidate locations; the paper picks the sender-side hand-off gate).
enum class Enforcement {
  // Priorities influence ready-queue picks but nothing blocks hand-off.
  kPriorityOnly,
  // Sender-side counter gate before the gRPC hand-off (the paper's
  // choice): transfers enqueue in normalized-priority order, channels
  // drain concurrently.
  kHandoffGate,
  // Direct DAG dependencies between consecutive transfers: conservative,
  // each transfer waits for the *completion* of the previous one, which
  // defeats pipelining across channels (§5.1 rejects this).
  kDagChain,
};

const char* ToString(Enforcement enforcement);

// Compact machine-readable token, the `enforce=` value of the
// ExperimentSpec grammar: "priority" | "gate" | "chain". ToString() above
// stays the human-readable display form.
const char* EnforcementToken(Enforcement enforcement);

// Inverse of EnforcementToken; throws std::invalid_argument listing the
// accepted tokens.
Enforcement ParseEnforcement(std::string_view token);

// Upper bound on the lognormal shapes `tac_oracle_sigma` (spec `sigma=`)
// and `sim.jitter_sigma` (spec `jitter=`). Both draws scale a time by
// exp(sigma·z) with a bounded standard normal z: |z| <= 8.7 for
// core::NoisyTimeOracle's Box-Muller over 53-bit uniforms in (0, 1), and
// |z| <= 12.2 for the simulator's std::lognormal_distribution (the polar
// method over mt19937_64 draws, whose squared radius is at least
// 2^-106). At sigma <= 10 the factor lies in [e^-122, e^122]: finite and
// nonzero, with room for durations and their sums. Larger shapes can
// overflow to inf or flush to 0, poisoning schedules and simulated times.
inline constexpr double kMaxNoiseSigma = 10.0;

struct ClusterConfig {
  int num_workers = 1;
  int num_ps = 1;
  // Training (forward+backward+gradient push+PS update) vs inference
  // (parameter read + forward), per the two workloads of Section 6.
  bool training = true;
  // Batch-size multiplier (Figure 10 sweeps {0.5, 1, 2}).
  double batch_factor = 1.0;
  // Hardware cost model. compute_rate is in GFLOP/s to match the
  // GFLOP-denominated op costs produced by the model builder.
  core::PlatformModel platform;
  // Execution-time variation and gRPC reordering.
  sim::SimOptions sim;
  // Lognormal sigma for the oracle TAC consumes; 0 = exact oracle. Models
  // trace-estimation error (the ablation of DESIGN.md A2).
  double tac_oracle_sigma = 0.0;
  // Order-enforcement mechanism (ablation A1).
  Enforcement enforcement = Enforcement::kHandoffGate;
  // Per-worker compute speed multipliers (hardware heterogeneity; 1.0 =
  // nominal). Empty = homogeneous. Scheduling fixes *schedule-induced*
  // stragglers, not hardware ones — the straggler ablation separates the
  // two.
  std::vector<double> worker_speed_factors;
  // Split transfers larger than this into chunks before scheduling
  // (core/chunking.h, the P3/ByteScheduler-style extension). 0 = off.
  std::int64_t chunk_bytes = 0;
  // Aggregation topology: parameter-server fabric (the paper's setting)
  // or ring all-reduce.
  Topology topology = Topology::kPsFabric;
  // Parameter -> PS placement strategy (runtime/sharding.h).
  ShardStrategy shard = ShardStrategy::kBytes;
  // Flow-level max-min fair contention (DESIGN.md §11): the
  // lower_flow_nics pass attaches a capacity graph of this fat-tree shape
  // (models/topology.h) — leaf pod count and core oversubscription ratio;
  // the defaults describe a single non-blocking switch — and runs set
  // SimOptions::network to it. Off = the static bandwidth/T split.
  bool flow_fairness = false;
  int fabric_pods = 1;
  double fabric_oversubscription = 1.0;

  // Rejects configurations that would silently misbehave downstream:
  // num_workers/num_ps < 1, batch_factor <= 0, chunk_bytes < 0,
  // tac_oracle_sigma or sim.jitter_sigma outside [0, kMaxNoiseSigma],
  // topology=ring without training or with < 2 workers,
  // worker_speed_factors whose size is neither 0 nor num_workers or whose
  // entries are not positive, fabric_pods < 1, non-positive
  // fabric_oversubscription, and flow_fairness on a ring topology
  // (the flow model covers the PS fabric only; pods vs host count is
  // checked at lowering time against the merged fabric). Throws
  // std::invalid_argument naming the offending field and value. Runner
  // and ClusterSpec::Build() call this on construction.
  void Validate() const;
};

// envG — cloud GPU environment: Standard NC6 workers (1x K80) with
// CPU-only F64s parameter servers on a ~10 Gb/s cloud fabric.
ClusterConfig EnvG(int num_workers, int num_ps, bool training);

// envC — high-end CPU commodity cluster on 1 GbE.
ClusterConfig EnvC(int num_workers, int num_ps, bool training);

}  // namespace tictac::runtime
