// Declarative experiment descriptions (DESIGN.md §5).
//
// An ExperimentSpec is the complete, self-contained description of one
// run: which model, what cluster, which scheduling policy, how many
// iterations, which seed. It serializes to a compact one-line text form
//
//   envG:workers=8:ps=4:training model=VGG-16 policy=tac iterations=10 seed=1
//
// and parses back to an equal spec (round-trip identity), so experiment
// grids can live in shell scripts, CI configs, and bench tables instead
// of hand-rolled C++ loops.
//
// A SweepSpec is the same grammar with comma-separated value lists on
// any cluster axis plus models= / policies=, expanding to the cartesian
// grid in a deterministic order:
//
//   envG:workers=1,2,4,8:ps=1 models=VGG-16,Inception v2 policies=baseline,tic
//
// harness::Session executes specs (serially or on a thread pool) with
// Runner caching keyed by (model, cluster); see harness/session.h.
#pragma once

#include <cstdint>
#include <optional>
#include <string>
#include <string_view>
#include <vector>

#include "runtime/cluster.h"
#include "util/parse.h"

namespace tictac::runtime {

// Shortest round-trip decimal form of a double (util/parse.h). Spec
// round-trips through it are exact, so Session cache keys never alias
// two distinct configurations.
using util::FormatDouble;

// The cluster half of a spec: a named base environment (envG / envC)
// plus the overrides the grammar exposes. Kept symbolic — rather than a
// raw ClusterConfig — so specs serialize compactly and compare exactly.
struct ClusterSpec {
  std::string env = "envG";  // "envG" (cloud GPU) or "envC" (CPU/1GbE)
  int workers = 4;
  int ps = 1;
  bool training = false;
  double batch_factor = 1.0;
  std::int64_t chunk_bytes = 0;
  ShardStrategy shard = ShardStrategy::kBytes;
  Topology topology = Topology::kPsFabric;
  Enforcement enforcement = Enforcement::kHandoffGate;
  double tac_oracle_sigma = 0.0;
  // Env defaults apply when unset (EnvG/EnvC pick their own jitter and
  // out-of-order probability); set to override.
  std::optional<double> jitter_sigma;
  std::optional<double> out_of_order;
  // Per-worker speed multipliers; empty = homogeneous. Never a sweep
  // axis (its commas separate per-worker values, not grid points).
  std::vector<double> worker_speed_factors;
  // Flow-level max-min fairness (":flow" enables flow_fairness) and
  // the fat-tree shape lower_flow_nics builds when it is on: pods= core
  // pods, oversub= core oversubscription ratio. Scalar knobs, not sweep
  // axes.
  bool flow = false;
  int pods = 1;
  double oversub = 1.0;

  // Materializes the validated ClusterConfig (throws std::invalid_argument
  // with the offending field for out-of-range values, unknown env).
  ClusterConfig Build() const;

  // Canonical text form, e.g. "envG:workers=8:ps=4:training:batch=0.5".
  // Defaults other than workers/ps/task are omitted.
  std::string ToString() const;

  friend bool operator==(const ClusterSpec&, const ClusterSpec&) = default;
};

// The most simulated iterations one run may ask for. Every grammar that
// reads iterations= (and every entry point that runs them) rejects more,
// naming the knob, before it sizes per-iteration results.
inline constexpr int kMaxIterations = 1'000'000;

// One fully-specified run.
struct ExperimentSpec {
  std::string model;  // zoo name, e.g. "Inception v2"
  ClusterSpec cluster;
  std::string policy = "tic";  // core::PolicyRegistry spec
  int iterations = 10;
  std::uint64_t seed = 1;

  // Canonical one-line form; Parse(ToString()) == *this.
  std::string ToString() const;

  // Parses "<cluster> model=<name> [policy=<spec>] [iterations=N]
  // [seed=N]". Model names may contain spaces. Throws
  // std::invalid_argument (naming the bad token) on malformed input,
  // missing model, list-valued axes (use SweepSpec), or an invalid
  // cluster.
  static ExperimentSpec Parse(std::string_view text);

  ClusterConfig BuildCluster() const { return cluster.Build(); }

  friend bool operator==(const ExperimentSpec&,
                         const ExperimentSpec&) = default;
};

// A cartesian grid of ExperimentSpecs: every cluster axis plus models
// and policies may hold several values. The other ClusterSpec members,
// iterations and seed are scalar, copied into every run.
struct SweepSpec {
  std::vector<std::string> models;  // required, >= 1 name
  std::string env = "envG";
  std::vector<bool> tasks{false};  // training flags (false = inference)
  std::vector<int> workers{4};
  std::vector<int> ps{1};
  std::vector<double> batch_factors{1.0};
  std::vector<std::int64_t> chunk_bytes{0};
  std::vector<ShardStrategy> shards{ShardStrategy::kBytes};
  std::vector<Topology> topologies{Topology::kPsFabric};
  std::vector<Enforcement> enforcements{Enforcement::kHandoffGate};
  std::vector<double> tac_oracle_sigmas{0.0};
  std::vector<std::string> policies{"tic"};
  std::optional<double> jitter_sigma;
  std::optional<double> out_of_order;
  std::vector<double> worker_speed_factors;
  bool flow = false;
  int pods = 1;
  double oversub = 1.0;
  int iterations = 10;
  std::uint64_t seed = 1;

  // Number of specs Expand() produces (the product of the axis sizes).
  std::size_t size() const;

  // The full grid, nested model → task → workers → ps → batch → chunk →
  // shard → topology → enforcement → sigma → policy (policy varies
  // fastest, so consecutive specs share a Session Runner-cache entry).
  // Deterministic: the order depends only on the axis value order.
  // Throws naming the first empty axis.
  std::vector<ExperimentSpec> Expand() const;

  // Canonical text form; Parse(ToString()) == *this.
  std::string ToString() const;

  // Parses "<cluster-with-lists> models=<a,b> [policies=<a,b>]
  // [iterations=N] [seed=N]"; singular model=/policy= are accepted as
  // aliases. Throws std::invalid_argument on malformed input.
  static SweepSpec Parse(std::string_view text);

  friend bool operator==(const SweepSpec&, const SweepSpec&) = default;
};

}  // namespace tictac::runtime
