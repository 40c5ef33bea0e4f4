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
// The combined task graph runs through the existing sim::TaskGraphSim
// unchanged — tasks, resources, priorities and per-(job, worker) gate
// groups are all it ever sees. Each job is a JobSlice: a view of its
// task and worker ranges in that one graph, from which
// runtime::ComputeIterationStats reads per-job makespans, efficiency and
// overlap straight out of the combined SimResult.
#pragma once

#include <cstdint>
#include <span>
#include <string>
#include <string_view>
#include <vector>

#include "ir/pass.h"
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

// The combined fabric plus each job's view of it.
struct MultiJobLowering {
  // Whole-fabric task graph: num_workers = T, worker tables indexed by
  // global worker id. update_task/worker_sink are left empty (parameter
  // indices are per-job).
  Lowering combined;

  // One job's view of `combined`: its tasks [first_task, last_task) and
  // its workers [first_worker, first_worker + num_workers), measured on
  // the job's own clock, which starts start_offset seconds into the run.
  struct JobSlice {
    sim::TaskId first_task = 0;
    sim::TaskId last_task = 0;
    int first_worker = 0;
    int num_workers = 0;
    // The arrival-delay task gating the job's sources, -1 when
    // start_offset == 0. It lies outside [first_task, last_task).
    sim::TaskId delay_task = -1;
    double start_offset = 0.0;
  };
  std::vector<JobSlice> jobs;

  int total_workers = 0;
  int num_ps = 0;
};

// Lowers every job as runtime::LowerCluster does and merges the results
// onto the shared fabric: task ids are offset per job, resources remapped
// into the combined layout (PS CPUs collapse onto the shared S), gate
// groups renumbered by global worker so enforcement counters never
// collide across jobs, and a start_offset > 0 becomes a delay task every
// source task of the job depends on. All jobs must declare the same
// num_ps. A single zero-offset job reproduces LowerCluster bit for bit.
// `pipeline` goes to the pass pipeline (invariant checks, dump hook).
MultiJobLowering LowerSharedCluster(const std::vector<JobLoweringInput>& jobs,
                                    const ir::PipelineOptions& pipeline = {});

// ComputeIterationStats for each job slice of a multi-job lowering, read
// from the combined run on the job's own clock: every start and end is
// shifted back by start_offset, so waiting to arrive is not billed as
// execution time or Eq.-3 inefficiency, and makespan is the max shifted
// end over [first_task, last_task). (Under jitter the delay task may run
// off the nominal offset, so a shifted start can be marginally negative;
// the metrics only use differences and maxima.)
std::vector<IterationStats> ComputeIterationStats(
    const Lowering& lowering, const sim::SimResult& run,
    std::span<const MultiJobLowering::JobSlice> slices);

// Combined + per-job views of one multi-job experiment. jobs[j] is read
// from the same simulated executions the combined result summarizes, on
// the job's own clock (ComputeIterationStats over the slices), so for
// every iteration i:
//   combined.iterations[i].makespan ==
//       max_j (jobs[j].iterations[i].makespan + start_offset_j)
// (each task belongs to exactly one job; delay tasks never finish
// last). With all offsets zero — the common case — the combined
// makespan is exactly the max over per-job makespans.
struct MultiJobResult {
  ExperimentResult combined;
  std::vector<ExperimentResult> jobs;
};

// One shared PS fabric, ready to simulate.
struct SharedFabric {
  MultiJobLowering lowering;
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
// contended oracle), lowers the fabric with LowerSharedCluster
// (forwarding `pipeline`) and derives the sim options. The result owns
// everything it points into; the cache need not outlive it.
// MultiJobRunner, ClusterSweep, the scheduler service and `tictac_cli
// lower` build here.
SharedFabric BuildSharedFabric(const std::vector<MultiJobEntry>& entries,
                               RunnerCache& cache,
                               const ir::PipelineOptions& pipeline = {});

// Simulates `iterations` iterations of `fabric`, seeded seed + i as the
// single-job path is, with per-job statistics from the job slices.
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
