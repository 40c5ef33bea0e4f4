// Multi-job shared-cluster lowering (DESIGN.md §6): composes N
// independently-specified jobs onto ONE parameter-server fabric, so
// transfers from different jobs genuinely contend for the PS NICs and
// the PS bookkeeping CPUs — the regime ByteScheduler/P3-style systems
// target — while each job keeps its own workers, model, schedule and
// policy.
//
// Resource layout of the combined fabric (T = Σ_j W_j workers, S shared
// parameter servers; identical to runtime/lowering.h with W := T, so a
// 1-job lowering degenerates to the single-job layout *bit for bit*):
//   [0, T)                      worker computation, job j's workers at
//                                 [base_w(j), base_w(j) + W_j)
//   [T, T + T*S)                downlink channels (PS s -> global worker g)
//   [T + T*S, T + 2*T*S)        uplink channels (global worker g -> PS s)
//   [T + 2*T*S, T + 2*T*S + S)  PS bookkeeping CPUs — SHARED across jobs:
//                                 reads/aggregates/updates of all jobs
//                                 queue on the same S resources
//   [T + 2*T*S + S, ...)        one arrival-delay resource per job with a
//                                 start offset > 0
//
// Each PS NIC is time-shared by the T pair-channels of ALL jobs, so the
// per-channel bandwidth is bandwidth/T — adding a co-located job slows
// every transfer in the fabric, and the per-job schedules are computed
// against that contended oracle (BuildSharedFabric takes each job's
// Runner from a RunnerCache at fabric size T, built with the platform
// bandwidth scaled by W_j/T — runtime::SharedFabricConfig — and
// Runner::MakeSchedule divides by W_j; the product is bandwidth/T).
//
// runtime::Lower builds the fabric as one runtime::Lowering, and the
// combined task graph runs through the existing sim::TaskGraphSim
// unchanged — tasks, resources, priorities and per-(job, worker) gate
// groups are all it ever sees. Each job is a JobSlice: a view of its
// task and worker ranges in that one graph, from which
// runtime::RunIterations reads per-job makespans, efficiency and overlap
// straight out of the combined SimResult.
#pragma once

#include <cstdint>
#include <string>
#include <string_view>
#include <vector>

#include "ir/passes.h"
#include "runtime/lowering.h"
#include "runtime/runner.h"
#include "runtime/spec.h"

namespace tictac::runtime {

// Jobs per shared fabric, at most: each distinct job costs a full Runner
// construction (graph build, dependency analysis, schedule) and every
// job 2·S channel resources, so an over-generous count turns a one-line
// spec into minutes of work; 64 co-located jobs is far beyond any
// realistic shared-PS scenario.
inline constexpr int kMaxJobsPerFabric = 64;

// One job of a multi-job experiment: a complete single-job spec plus an
// arrival offset (seconds after t = 0 before any of the job's tasks may
// start — the staggered-arrival scenario family).
struct MultiJobEntry {
  ExperimentSpec spec;
  double start_offset = 0.0;

  friend bool operator==(const MultiJobEntry&,
                         const MultiJobEntry&) = default;
};

// Parses the "[COUNTx]{<experiment spec>}[@offset_s]" group grammar into
// a flat job list of at most `max_count` jobs in all (each COUNT, and
// the running total, checked before any entry is appended).
// MultiJobSpec::Parse is this with the 64-job fabric cap plus
// Validate(); the cluster sweep (runtime/clustersweep.h) parses with a
// larger cap and partitions the result over several fabrics. Throws
// std::invalid_argument (naming the bad token) on malformed input.
std::vector<MultiJobEntry> ParseJobGroups(std::string_view text,
                                          long long max_count);

// N jobs sharing one PS fabric. Text form (round-trips exactly):
//
//   jobs=2x{envG:workers=4:ps=2:training model=ResNet-101 v1 policy=tac
//   iterations=10 seed=1} {envG:workers=2:ps=2 model=VGG-16
//   policy=baseline iterations=10 seed=1}@0.05
//
// Grammar:
//   multijob := ["jobs="] group (ws group)*
//   group    := [COUNT "x"] "{" experiment-spec "}" ["@" OFFSET_SECONDS]
//
// `COUNT x` replicates the group (2x{...} = two identical co-located
// jobs); `@offset` delays every replica's arrival. ToString() collapses
// consecutive identical entries back into the counted form. At most
// kMaxJobsPerFabric jobs.
struct MultiJobSpec {
  std::vector<MultiJobEntry> jobs;

  // Canonical text form; Parse(ToString()) == *this.
  std::string ToString() const;

  // Throws std::invalid_argument (naming the bad token) on malformed
  // input. The parsed spec is Validate()d before being returned.
  static MultiJobSpec Parse(std::string_view text);

  // The fabric-sharing rules: >= 1 job; every job declares the same env,
  // the same ps= count (it is one shared PS fleet), the same
  // iterations/seed (the combined graph is simulated as one unit), and
  // the same jitter/ooo overrides (sim options are global to a run);
  // offsets must be finite and >= 0. Model, policy, workers, training,
  // batch, chunk, enforcement, sigma and speeds may differ per job.
  // Throws std::invalid_argument naming the offending job and field.
  void Validate() const;

  // Sum of the jobs' worker counts (the T of the resource layout).
  int TotalWorkers() const;

  friend bool operator==(const MultiJobSpec&, const MultiJobSpec&) = default;
};

// The rules any two jobs on one PS fabric obey: `job` has a valid
// cluster on the PS topology (a ring collective has no PS fleet to
// share) and declares `head`'s env, ps= and jitter=/ooo=. Throws
// std::invalid_argument reading `where` + the reason. MultiJobSpec's
// Validate and the scheduler service's arrival checks both call it.
void CheckSharesFabric(const ExperimentSpec& job, const ExperimentSpec& head,
                       const std::string& where);

// One shared PS fabric, ready to simulate.
struct SharedFabric {
  // The fabric's Lower result: one slice per job, in entry order.
  Lowering lowering;
  // Every run's options: job 0's sim options, with enforce_gates set
  // when any job's schedule covers all its recvs and the lowering's flow
  // network attached (flow fairness fabric-wide).
  sim::SimOptions options;
  // SamplesPerIteration of each job.
  std::vector<double> samples_per_iteration;
};

// The one lowering front end for a list of co-located jobs: sums their
// workers into T, takes each job's Runner (chunking, sharding) and
// schedule from `cache` at fabric size T (so the schedules see the
// contended oracle), lowers the fabric with Lower (forwarding
// `after_pass`) and derives the sim options. The result owns
// everything it points into; the cache need not outlive it.
// MultiJobRunner, ClusterSweep, the scheduler service and `tictac_cli
// lower` build here.
SharedFabric BuildSharedFabric(const std::vector<MultiJobEntry>& entries,
                               RunnerCache& cache,
                               const ir::PassHook& after_pass = {});

// Simulates `iterations` iterations of `fabric` through RunIterations,
// seeded seed + i as the single-job path is: per-job statistics from the
// job slices, and the whole fabric's as `combined`.
MultiJobResult RunSharedFabric(const SharedFabric& fabric, int iterations,
                               std::uint64_t seed);

// Builds and runs a multi-job experiment. Construction validates the
// spec and builds the shared fabric (BuildSharedFabric), with Runners
// from the borrowed `cache` when one is given and from a private cache
// otherwise; Run() then simulates the spec's iterations. A 1-job
// MultiJobRunner reproduces the single-job Session/Runner path bit for
// bit (pinned by tests/multijob_test.cc).
class MultiJobRunner {
 public:
  explicit MultiJobRunner(MultiJobSpec spec, RunnerCache* cache = nullptr);

  // Simulates spec().jobs[0].spec.iterations iterations (validated equal
  // across jobs), seeds seed + i as the single-job path does. Thread-safe
  // (const, all mutable state is per-call).
  MultiJobResult Run() const;
  MultiJobResult Run(int iterations, std::uint64_t seed) const;

  const MultiJobSpec& spec() const { return spec_; }
  // The lowered fabric and the options every Run() simulates with.
  const SharedFabric& fabric() const { return fabric_; }

 private:
  MultiJobSpec spec_;
  SharedFabric fabric_;
};

}  // namespace tictac::runtime
