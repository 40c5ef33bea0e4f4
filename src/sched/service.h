// Cluster-scheduler service (DESIGN.md §7–§8): the open-system front end
// over the multi-job shared-cluster simulator.
//
// The service runs a long-lived discrete-event loop at job-iteration
// granularity over K shared PS fabrics. service.cc's ServiceLoop has one
// method per step: Admit (an arrival burst: place, queue in the bounded
// FIFO, or reject), Place (sched/placement.h), Relower (ONLY the
// affected fabric, by runtime::BuildSharedFabric; schedules and
// PropertyIndex analyses come from the service's runtime::RunnerCache,
// built once per distinct (model, cluster, fabric size), never per
// event), SimulateIteration, Complete, Drain, and for faults Crash, Evict
// and Recover. The fault spec compiles once per run into a speed step
// function per (fabric, target). Run() then summarizes the records into
// the SLO report (p50/p99 slowdown vs the cached isolated baseline,
// windowed Jain fairness, utilization, queueing delay) by a pure
// function.
//
// Modeling choices (documented, deterministic):
//   * Re-scheduling happens at iteration boundaries: a job's in-flight
//     iteration finishes at the time computed when it started; the new
//     fabric mix applies from its next iteration — exactly how a PS
//     runtime reconfigures between steps, and what keeps replays
//     bit-identical.
//   * A job's iteration time under the current mix comes from one
//     combined-fabric simulation (runtime::BuildSharedFabric of the
//     resident jobs, seeded spec.seed + iteration index) sliced to the
//     job. A lone job on a fabric therefore reproduces the single-job
//     Session result bit for bit, with or without flow-level fairness
//     (the 1-job fabric degenerates exactly; pinned in
//     tests/service_test.cc).
//   * Same config + same seed => bit-identical ServiceReport (and
//     ToJson() string), on every platform.
#pragma once

#include <cstdint>
#include <string>
#include <unordered_map>
#include <vector>

#include "fault/fault.h"
#include "runtime/multijob.h"
#include "runtime/runner.h"
#include "sched/arrival.h"
#include "sched/placement.h"
#include "util/table.h"

namespace tictac::sched {

// Everything a service run depends on. Deterministic in this + nothing.
struct ServiceConfig {
  ArrivalSpec arrivals;
  // Templates for synthetic arrival processes, cycled round-robin
  // (ignored when arrivals is a trace — the trace carries its specs).
  std::vector<runtime::ExperimentSpec> workload;
  // Number of independent shared PS fabrics (the K of placement).
  int fabrics = 1;
  // Admission horizon in cluster seconds: arrivals stop at `duration`,
  // resident and queued jobs then drain to completion.
  double duration = 10.0;
  // sched::MakePlacementPolicy name.
  std::string placement = "least-loaded";
  // Per-fabric co-location cap; arrivals beyond it queue.
  int max_jobs_per_fabric = 8;
  // Bounded admission queue; arrivals beyond it are rejected (counted).
  int admission_queue_capacity = 64;
  // Time windows for the Jain-fairness-over-time series.
  int fairness_windows = 8;
  // Seeds the arrival stream (per-job sim seeds come from each spec).
  std::uint64_t seed = 1;
  // Deterministic fault timeline against the shared fabrics (DESIGN.md
  // §8). Empty (the default) = the fault-free engine and service paths,
  // bit for bit — pinned in tests/fault_test.cc. Fault randomness
  // (recovery-backoff jitter) comes from util::Rng::Stream(seed, ...),
  // an independent split, so enabling faults never perturbs the seeded
  // arrival sequence or per-iteration sim seeds.
  fault::FaultSpec faults;
  // Crash recovery: how many times an evicted job is re-queued before it
  // is declared failed, and the base of its exponential re-placement
  // backoff (delay ~ retry_backoff_s * 2^(retry-1), jittered). Only
  // consulted when a fault evicts a job.
  int retry_budget = 3;
  double retry_backoff_s = 0.05;

  // Structural bounds (fabric/queue/window counts, duration, placement
  // name, arrival spec). Job specs are validated against the shared
  // fabric when the arrival stream is materialized. Throws
  // std::invalid_argument naming the offending field.
  void Validate() const;
};

// The service-side life of one submitted job.
struct JobRecord {
  int id = 0;
  int fabric = -1;  // -1 while queued / when rejected
  runtime::ExperimentSpec spec;
  double arrival_time = 0.0;
  double admit_time = 0.0;      // == arrival_time when placed immediately
  double completion_time = 0.0;
  bool rejected = false;
  // Contended per-iteration durations, in execution order; iteration i
  // ran over [admit + Σ<i, admit + Σ<=i).
  std::vector<double> iteration_times;
  double mean_iter_s = 0.0;
  double isolated_iter_s = 0.0;  // cached single-job baseline
  double slowdown = 1.0;         // mean_iter_s / isolated_iter_s
  // Crash recovery (0 / false on the fault-free path): how many times a
  // fault evicted this job and it was re-queued, and whether it exhausted
  // the retry budget (failed jobs never complete and are excluded from
  // the slowdown/queue-delay aggregates).
  int retries = 0;
  bool failed = false;

  double QueueDelay() const { return admit_time - arrival_time; }
};

// Visibility into what the event loop actually did — the counters the
// "no full-world recompute" tests pin (tests/service_test.cc).
struct ServiceCounters {
  std::uint64_t arrivals = 0;
  std::uint64_t admitted = 0;
  std::uint64_t queued = 0;    // admitted via the queue (delay > 0)
  std::uint64_t rejected = 0;
  std::uint64_t completed = 0;
  // Shared-fabric lowerings built — one per (arrival|drain) per affected
  // fabric, never K at once.
  std::uint64_t fabric_relowerings = 0;
  // Runner constructions = PropertyIndex dependency analyses built. Stays
  // bounded by the distinct (model, cluster, fabric size) set while
  // arrivals grow unbounded: the reuse the subsystem is built around.
  // These four are the service RunnerCache's counters over one Run().
  std::uint64_t property_index_builds = 0;
  std::uint64_t runner_cache_hits = 0;
  std::uint64_t schedules_computed = 0;
  std::uint64_t schedule_cache_hits = 0;
  std::uint64_t sim_runs = 0;
  // Fault-injection / recovery accounting (all 0 without faults).
  std::uint64_t faults_injected = 0;  // materialized fault events applied
  std::uint64_t worker_crashes = 0;
  std::uint64_t fabric_crashes = 0;
  std::uint64_t retries = 0;       // evictions re-queued with budget left
  std::uint64_t replacements = 0;  // successful post-crash re-placements
  std::uint64_t lost_iterations = 0;  // in-flight iterations evicted
  std::uint64_t failed_jobs = 0;      // retry budget exhausted / stranded
};

struct ServiceReport {
  ServiceConfig config;
  std::vector<JobRecord> jobs;  // by submission order (id)
  ServiceCounters counters;

  // Cluster clock when the last job drained (>= duration when any job
  // was still running at the admission horizon; 0 for an empty stream).
  double makespan = 0.0;

  // SLO aggregates over completed jobs (neutral defaults when none).
  double p50_slowdown = 1.0;
  double p99_slowdown = 1.0;
  double mean_slowdown = 1.0;
  double max_slowdown = 1.0;
  double mean_queue_delay_s = 0.0;
  double p50_queue_delay_s = 0.0;
  double p99_queue_delay_s = 0.0;
  // Busy fabric-time / (fabrics * makespan): the fraction of fabric
  // capacity that had >= 1 resident job.
  double utilization = 0.0;
  double mean_active_jobs = 0.0;
  // Jain fairness of per-job normalized progress, per time window over
  // [0, makespan] (config.fairness_windows entries; 1 where no job was
  // active), plus its mean.
  std::vector<double> window_fairness;
  double mean_fairness = 1.0;

  // Robustness SLOs (meaningful only when config.faults is non-empty;
  // neutral defaults otherwise, and omitted from ToTable/ToJson so
  // fault-free output stays byte-identical to the pre-fault service).
  // MTTR = re-placement time minus eviction time, per recovery.
  double mttr_mean_s = 0.0;
  double mttr_max_s = 0.0;
  // Simulated work thrown away by evictions (partial in-flight
  // iterations at the moment their fabric or worker slot died).
  double wasted_s = 0.0;
  // Iteration throughput: offered counts every arrived job's declared
  // iterations; goodput counts only iterations of jobs that completed.
  double offered_iters_per_s = 0.0;
  double goodput_iters_per_s = 0.0;

  // Two-column SLO summary (metric, value).
  util::Table ToTable() const;
  // Summary JSON object (config echo, job counts, SLO block, counters);
  // bit-identical across runs with the same config. Shape pinned in
  // tests/service_test.cc.
  std::string ToJson() const;
  // Per-job records as a JSON array — the `serve --trace out.json` body.
  std::string JobTraceJson() const;
};

// The long-running scheduler loop. Construction validates the config;
// Run() materializes the arrival stream, validates it against the
// shared-fabric rules (uniform env / ps= / jitter / ooo across all jobs;
// iterations and seed are per-job), and plays the open system to
// completion. Run() is deterministic and repeatable — internal caches
// only make it faster, never different (the cache counters excepted:
// a second Run() finds what the first built).
class SchedulerService {
 public:
  explicit SchedulerService(ServiceConfig config);

  ServiceReport Run();

 private:
  double IsolatedIterationTime(const runtime::ExperimentSpec& spec);

  ServiceConfig config_;
  // Runners and schedules per (model, cluster, fabric size); a job alone
  // on its fabric doubles as the isolated baseline.
  runtime::RunnerCache cache_;
  std::unordered_map<std::string, double> isolated_;
};

}  // namespace tictac::sched
