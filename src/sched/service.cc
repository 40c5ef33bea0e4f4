#include "sched/service.h"

#include <algorithm>
#include <cmath>
#include <deque>
#include <limits>
#include <memory>
#include <queue>
#include <stdexcept>
#include <utility>

#include "core/metrics.h"
#include "core/policy_registry.h"
#include "models/zoo.h"
#include "util/json.h"
#include "util/rng.h"
#include "util/stats.h"

namespace tictac::sched {
namespace {

using runtime::FormatDouble;
using util::JsonEscape;

[[noreturn]] void Fail(const std::string& message) {
  throw std::invalid_argument("service: " + message);
}

constexpr int kMaxFabrics = 4096;

// How long after a fault window lifts (or a worker crash fires) the
// failure-aware placement policy still counts the fabric as recently
// faulty. A constant, not a knob: recency feeds a placement *preference*,
// and a fixed horizon keeps replays comparable across configs.
constexpr double kFaultRecencyS = 1.0;

// util::Rng::Stream id for the fault layer's only randomness (recovery
// backoff jitter) — an independent split of the service seed, so the
// arrival stream and per-iteration sim seeds replay untouched.
constexpr std::uint64_t kFaultRngStream = 1;

double MeanOf(const std::vector<double>& xs) {
  if (xs.empty()) return 0.0;
  double sum = 0.0;
  for (const double x : xs) sum += x;
  return sum / static_cast<double>(xs.size());
}

// Iterations completed by absolute cluster time `t` (fractional within
// the in-flight iteration) — the progress curve windowed fairness
// integrates.
double ProgressAt(const JobRecord& record, double t) {
  double progress = 0.0;
  double start = record.admit_time;
  for (const double duration : record.iteration_times) {
    if (t >= start + duration) {
      progress += 1.0;
      start += duration;
    } else if (t > start && duration > 0.0) {
      return progress + (t - start) / duration;
    } else {
      break;
    }
  }
  return progress;
}

}  // namespace

void ServiceConfig::Validate() const {
  arrivals.Validate();
  if (fabrics < 1 || fabrics > kMaxFabrics) {
    Fail("fabrics must be in [1, " + std::to_string(kMaxFabrics) +
         "], got " + std::to_string(fabrics));
  }
  if (!(duration > 0.0) || !std::isfinite(duration)) {
    Fail("duration must be finite and > 0, got " + FormatDouble(duration));
  }
  if (max_jobs_per_fabric < 1 ||
      max_jobs_per_fabric > runtime::kMaxJobsPerFabric) {
    Fail("max_jobs_per_fabric must be in [1, " +
         std::to_string(runtime::kMaxJobsPerFabric) + "], got " +
         std::to_string(max_jobs_per_fabric));
  }
  if (admission_queue_capacity < 0) {
    Fail("admission_queue_capacity must be >= 0, got " +
         std::to_string(admission_queue_capacity));
  }
  if (fairness_windows < 1 || fairness_windows > 4096) {
    Fail("fairness_windows must be in [1, 4096], got " +
         std::to_string(fairness_windows));
  }
  MakePlacementPolicy(placement);  // throws, listing the registered names
  if (arrivals.kind != ArrivalSpec::Kind::kTrace && workload.empty()) {
    Fail("synthetic arrivals need >= 1 workload experiment spec");
  }
  if (retry_budget < 0 || retry_budget > 1024) {
    Fail("retry_budget must be in [0, 1024], got " +
         std::to_string(retry_budget));
  }
  if (!(retry_backoff_s > 0.0) || !std::isfinite(retry_backoff_s)) {
    Fail("retry_backoff_s must be finite and > 0, got " +
         FormatDouble(retry_backoff_s));
  }
  faults.Validate();  // throws with the offending event and field
}

SchedulerService::SchedulerService(ServiceConfig config)
    : config_(std::move(config)) {
  config_.Validate();
}

double SchedulerService::IsolatedIterationTime(
    const runtime::ExperimentSpec& spec) {
  const std::string key = spec.ToString();
  const auto it = isolated_.find(key);
  if (it != isolated_.end()) return it->second;
  // The job alone on a fabric: the single-job Session path.
  const double mean = cache_.runner(spec, spec.cluster.workers)
                          .Run(spec.policy, spec.iterations, spec.seed)
                          .MeanIterationTime();
  isolated_[key] = mean;
  return mean;
}

ServiceReport SchedulerService::Run() {
  ServiceReport report;
  report.config = config_;
  ServiceCounters& counters = report.counters;
  const runtime::RunnerCache::Counters cache_before = cache_.counters();

  const std::vector<ArrivalEvent> arrivals = GenerateArrivals(
      config_.arrivals, config_.workload, config_.duration, config_.seed);

  // Shared-fabric stream validation: any two jobs may be co-located, so
  // every arrival must share arrival 0's fabric (CheckSharesFabric, as in
  // MultiJobSpec::Validate; iterations/seed stay per-job: every job's
  // iterations are simulated against its own seed).
  for (std::size_t i = 0; i < arrivals.size(); ++i) {
    const runtime::ExperimentSpec& spec = arrivals[i].spec;
    const std::string where =
        "arrival " + std::to_string(i) + " ('" + spec.ToString() + "') ";
    runtime::CheckSharesFabric(spec, arrivals.front().spec,
                               "service: " + where);
    core::PolicyRegistry::Global().Create(spec.policy);  // fail fast
    if (spec.iterations < 1) {
      Fail(where + "declares iterations=" + std::to_string(spec.iterations) +
           " — must be >= 1");
    }
  }

  // ---- event-loop state ----------------------------------------------------

  struct ActiveJob {
    int record = 0;              // index into report.jobs
    int next_iteration = 0;      // completed iterations
    double iteration_finish = 0.0;  // absolute finish of the in-flight one
  };
  struct Fabric {
    std::vector<ActiveJob> jobs;  // order matches shared.lowering.jobs
    runtime::SharedFabric shared;
    std::unique_ptr<sim::TaskGraphSim> sim;
    bool dirty = false;  // membership changed since `shared` was built
    bool down = false;   // crash:fabric fired — permanently out of service
  };
  std::vector<Fabric> fabrics(static_cast<std::size_t>(config_.fabrics));

  // ---- fault-timeline compilation (DESIGN.md §8) ---------------------------
  //
  // Perturbation events (straggler / slowlink / flap) compile to
  // per-fabric absolute speed windows, consulted when an iteration is
  // simulated; crash events become a dedicated event source of the loop
  // below. An empty spec compiles to nothing and leaves every code path
  // on the fault-free route, bit for bit (pinned in tests/fault_test.cc).
  struct Window {
    double start = 0.0;
    double end = 0.0;        // +inf when the perturbation never lifts
    bool on_worker = false;  // worker-slot target vs PS-NIC target
    int index = 0;           // fabric-local worker slot / NIC id
    double speed = 1.0;      // rate multiplier while active (0 = down)
  };
  struct Crash {
    double at = 0.0;
    bool whole_fabric = false;
    int fabric = 0;
    int worker = -1;
  };
  std::vector<std::vector<Window>> fault_windows(fabrics.size());
  std::vector<Crash> crashes;  // in time order (Materialize sorts by at)
  for (const fault::FaultEvent& e : config_.faults.Materialize()) {
    if (e.fabric < 0 || e.fabric >= config_.fabrics) {
      Fail("fault '" + e.ToString() + "' targets fabric " +
           std::to_string(e.fabric) + " but the service has " +
           std::to_string(config_.fabrics));
    }
    std::vector<Window>& windows =
        fault_windows[static_cast<std::size_t>(e.fabric)];
    switch (e.kind) {
      case fault::FaultEvent::Kind::kStraggler:
        windows.push_back(
            Window{e.at, e.at + e.duration, true, e.worker, 1.0 / e.factor});
        break;
      case fault::FaultEvent::Kind::kSlowLink:
        windows.push_back(
            Window{e.at, e.at + e.duration, false, e.nic, e.scale});
        break;
      case fault::FaultEvent::Kind::kFlap:
        // Down for the first half of every period over [at, at + for);
        // Validate() bounds the expansion at 4096 cycles.
        for (double cycle = e.at; cycle < e.at + e.duration;
             cycle += e.period) {
          windows.push_back(
              Window{cycle, std::min(cycle + e.period / 2.0, e.at + e.duration),
                     false, e.nic, 0.0});
        }
        break;
      case fault::FaultEvent::Kind::kCrashWorker:
        crashes.push_back(Crash{e.at, false, e.fabric, e.worker});
        break;
      case fault::FaultEvent::Kind::kCrashFabric:
        crashes.push_back(Crash{e.at, true, e.fabric, -1});
        break;
    }
    ++counters.faults_injected;
  }
  const bool has_faults = counters.faults_injected > 0;

  util::Rng fault_rng = util::Rng::Stream(config_.seed, kFaultRngStream);
  // (ready time, record id) min-heap — ties resolve to the lower id, so
  // recovery order is deterministic.
  std::priority_queue<std::pair<double, int>,
                      std::vector<std::pair<double, int>>, std::greater<>>
      retry_ready;
  std::vector<double> evicted_at;  // per record: time of its last eviction
  std::vector<double> mttrs;       // re-placement time - eviction time
  double wasted_s = 0.0;

  const std::unique_ptr<PlacementPolicy> placement =
      MakePlacementPolicy(config_.placement);
  std::deque<int> admission_queue;  // record indices, FIFO
  std::size_t decisions = 0;        // placement decisions (round-robin state)

  double now = 0.0;
  double busy_fabric_time = 0.0;
  double active_job_time = 0.0;

  // Re-lowers ONE fabric from its current membership; every other fabric
  // keeps its lowering, sim, and cached analyses untouched.
  const auto relower = [&](Fabric& fabric) {
    std::vector<runtime::MultiJobEntry> entries;
    entries.reserve(fabric.jobs.size());
    for (const ActiveJob& job : fabric.jobs) {
      entries.push_back(
          {report.jobs[static_cast<std::size_t>(job.record)].spec, 0.0});
    }
    fabric.shared = runtime::BuildSharedFabric(entries, cache_);
    fabric.sim = std::make_unique<sim::TaskGraphSim>(
        fabric.shared.lowering.combined.BuildSim());
    fabric.dirty = false;
    ++counters.fabric_relowerings;
  };

  // Scratch for the per-iteration fault timeline, relative to `now`;
  // reused across calls and alive through the sim Run below. `boundaries`
  // is the per-target change-point scratch.
  std::vector<sim::ResourceFault> iter_faults;
  std::vector<double> boundaries;

  // Translates fabric `f`'s absolute speed windows into a timeline
  // relative to `now` for one iteration sim. Per target, the effective
  // speed at any instant is the product of its active windows (any down
  // window wins); the engine samples speed at task start (sim/task.h).
  // Targets past the fabric's current lowering strike air — exactly what
  // a dead worker slot or an unequipped PS does.
  const auto build_iteration_faults = [&](std::size_t f) {
    iter_faults.clear();
    const std::vector<Window>& windows = fault_windows[f];
    // The fabric's lowering is current: schedule_iteration relowers a
    // dirty fabric first.
    const int total_workers = fabrics[f].shared.lowering.total_workers;
    const int servers = fabrics[f].shared.lowering.num_ps;
    for (std::size_t i = 0; i < windows.size(); ++i) {
      // First window of each distinct target drives that whole target.
      bool seen = false;
      for (std::size_t k = 0; k < i && !seen; ++k) {
        seen = windows[k].on_worker == windows[i].on_worker &&
               windows[k].index == windows[i].index;
      }
      if (seen) continue;
      if (windows[i].on_worker
              ? windows[i].index >= total_workers
              : windows[i].index >= servers) {
        continue;  // strikes air under the current lowering
      }
      boundaries.clear();
      boundaries.push_back(now);
      for (const Window& w : windows) {
        if (w.on_worker != windows[i].on_worker ||
            w.index != windows[i].index) {
          continue;
        }
        if (w.start > now) boundaries.push_back(w.start);
        if (std::isfinite(w.end) && w.end > now) boundaries.push_back(w.end);
      }
      std::sort(boundaries.begin(), boundaries.end());
      boundaries.erase(std::unique(boundaries.begin(), boundaries.end()),
                       boundaries.end());
      double last_speed = 1.0;
      for (const double b : boundaries) {
        double speed = 1.0;
        for (const Window& w : windows) {
          if (w.on_worker == windows[i].on_worker &&
              w.index == windows[i].index && w.start <= b && b < w.end) {
            speed *= w.speed;
          }
        }
        if (speed == last_speed) continue;
        last_speed = speed;
        const double rel = b - now;
        if (windows[i].on_worker) {
          iter_faults.push_back(
              sim::ResourceFault{rel, windows[i].index, speed});
        } else {
          // NIC n serves every worker's downlink and uplink channel pair
          // against server n (runtime/lowering.h resource layout, with
          // W := the combined fabric's total worker count).
          for (int w = 0; w < total_workers; ++w) {
            iter_faults.push_back(sim::ResourceFault{
                rel, total_workers + w * servers + windows[i].index, speed});
            iter_faults.push_back(sim::ResourceFault{
                rel,
                total_workers + total_workers * servers + w * servers +
                    windows[i].index,
                speed});
          }
        }
      }
    }
    std::stable_sort(iter_faults.begin(), iter_faults.end(),
                     [](const sim::ResourceFault& a,
                        const sim::ResourceFault& b) { return a.time < b.time; });
  };

  // Simulates job `j`'s next iteration under the fabric's current mix
  // and books its finish time. Seeded spec.seed + iteration index,
  // matching the single-job Runner::Run convention bit for bit.
  const auto schedule_iteration = [&](std::size_t f, std::size_t j) {
    Fabric& fabric = fabrics[f];
    if (fabric.dirty) relower(fabric);
    ActiveJob& job = fabric.jobs[j];
    JobRecord& record = report.jobs[static_cast<std::size_t>(job.record)];
    sim::SimOptions& options = fabric.shared.options;
    options.faults = nullptr;
    if (has_faults && !fault_windows[f].empty()) {
      build_iteration_faults(f);
      if (!iter_faults.empty()) options.faults = &iter_faults;
    }
    const sim::SimResult run = fabric.sim->Run(
        options,
        record.spec.seed + static_cast<std::uint64_t>(job.next_iteration));
    ++counters.sim_runs;
    const runtime::MultiJobLowering::JobSlice& slice =
        fabric.shared.lowering.jobs[j];
    double duration = 0.0;
    for (sim::TaskId t = slice.first_task; t < slice.last_task; ++t) {
      duration = std::max(duration, run.end[static_cast<std::size_t>(t)]);
    }
    job.iteration_finish = now + duration;
    record.iteration_times.push_back(duration);
  };

  const auto fabric_loads = [&] {
    std::vector<FabricLoad> loads(fabrics.size());
    for (std::size_t f = 0; f < fabrics.size(); ++f) {
      loads[f].down = fabrics[f].down;
      if (has_faults) {
        // Recency feed for the failure-aware policy: perturbation windows
        // active now (or lifted within kFaultRecencyS) and recent worker
        // crashes. Fabric crashes need no counting — down says it all.
        for (const Window& w : fault_windows[f]) {
          if (w.start <= now && now <= w.end + kFaultRecencyS) {
            ++loads[f].recent_faults;
          }
        }
        for (const Crash& c : crashes) {
          if (!c.whole_fabric && c.fabric == static_cast<int>(f) &&
              c.at <= now && now <= c.at + kFaultRecencyS) {
            ++loads[f].recent_faults;
          }
        }
      }
      for (const ActiveJob& job : fabrics[f].jobs) {
        const JobRecord& record =
            report.jobs[static_cast<std::size_t>(job.record)];
        ++loads[f].active_jobs;
        loads[f].active_workers += record.spec.cluster.workers;
        loads[f].active_param_mib +=
            models::FindModel(record.spec.model).total_param_mib;
      }
    }
    return loads;
  };

  // Places record `r` now if the policy finds an eligible fabric;
  // returns the fabric index or -1. A re-placement after a crash keeps
  // the job's original admit_time (queue delay measures admission, not
  // recovery) and resumes from its completed-iteration count.
  const auto try_place = [&](int r) {
    JobRecord& record = report.jobs[static_cast<std::size_t>(r)];
    const int f = placement->Place(record.spec, fabric_loads(), decisions++,
                                   config_.max_jobs_per_fabric);
    if (f < 0) return -1;
    Fabric& fabric = fabrics[static_cast<std::size_t>(f)];
    if (fabric.down ||
        static_cast<int>(fabric.jobs.size()) >= config_.max_jobs_per_fabric) {
      Fail("placement policy '" + config_.placement +
           "' returned ineligible fabric " + std::to_string(f));
    }
    record.fabric = f;
    if (record.retries == 0) {
      record.admit_time = now;
      ++counters.admitted;
    } else {
      ++counters.replacements;
      mttrs.push_back(now - evicted_at[static_cast<std::size_t>(r)]);
    }
    // iteration_times holds exactly the completed iterations here (an
    // eviction pops the in-flight one), so its size is where to resume.
    fabric.jobs.push_back(
        ActiveJob{r, static_cast<int>(record.iteration_times.size()), 0.0});
    fabric.dirty = true;
    return f;
  };

  // Evicts resident job `j` of fabric `f`: the in-flight iteration is
  // lost, and the job is either re-queued for a backed-off retry or — on
  // an exhausted budget — declared failed.
  const auto evict = [&](std::size_t f, std::size_t j) {
    Fabric& fabric = fabrics[f];
    const ActiveJob job = fabric.jobs[j];
    fabric.jobs.erase(fabric.jobs.begin() + static_cast<std::ptrdiff_t>(j));
    JobRecord& record = report.jobs[static_cast<std::size_t>(job.record)];
    if (!record.iteration_times.empty()) {
      const double d = record.iteration_times.back();
      record.iteration_times.pop_back();
      wasted_s += now - (job.iteration_finish - d);
      ++counters.lost_iterations;
    }
    record.fabric = -1;
    evicted_at[static_cast<std::size_t>(job.record)] = now;
    if (record.retries >= config_.retry_budget) {
      record.failed = true;
      ++counters.failed_jobs;
      return;
    }
    ++record.retries;
    ++counters.retries;
    // Exponential backoff with multiplicative jitter in [1, 1.5): spreads
    // a mass eviction (fabric crash) so survivors do not re-place as one
    // burst. Uniform01 is the portable draw — replays match across
    // platforms — and fault_rng is an independent stream, so these draws
    // never perturb arrivals or sim seeds.
    const double backoff = config_.retry_backoff_s *
                           std::ldexp(1.0, record.retries - 1) *
                           (1.0 + 0.5 * fault_rng.Uniform01());
    retry_ready.emplace(now + backoff, job.record);
  };

  // Pulls queued jobs while the policy keeps placing them (FIFO: the
  // head blocks the rest), then simulates their first iterations.
  const auto drain_admission_queue = [&] {
    std::vector<std::pair<std::size_t, int>> admitted;
    while (!admission_queue.empty()) {
      const int r = admission_queue.front();
      const int placed = try_place(r);
      if (placed < 0) break;
      admission_queue.pop_front();
      admitted.emplace_back(static_cast<std::size_t>(placed), r);
    }
    for (const auto& [f, r] : admitted) {
      Fabric& target = fabrics[f];
      for (std::size_t j = 0; j < target.jobs.size(); ++j) {
        if (target.jobs[j].record == r) {
          schedule_iteration(f, j);
          break;
        }
      }
    }
  };

  // Integrates utilization / mean-jobs-in-system up to time `t`.
  const auto advance_clock = [&](double t) {
    int busy = 0;
    int active = 0;
    for (const Fabric& fabric : fabrics) {
      busy += fabric.jobs.empty() ? 0 : 1;
      active += static_cast<int>(fabric.jobs.size());
    }
    busy_fabric_time += (t - now) * busy;
    active_job_time += (t - now) * active;
    now = t;
  };

  // ---- the event loop ------------------------------------------------------

  constexpr double kInf = std::numeric_limits<double>::infinity();
  std::size_t next_arrival = 0;
  std::size_t next_crash = 0;
  while (true) {
    const double arrival_at = next_arrival < arrivals.size()
                                  ? arrivals[next_arrival].time
                                  : kInf;
    const double crash_at =
        next_crash < crashes.size() ? crashes[next_crash].at : kInf;
    const double retry_at =
        retry_ready.empty() ? kInf : retry_ready.top().first;
    double completion_at = kInf;
    std::size_t completion_fabric = 0;
    std::size_t completion_job = 0;
    for (std::size_t f = 0; f < fabrics.size(); ++f) {
      for (std::size_t j = 0; j < fabrics[f].jobs.size(); ++j) {
        if (fabrics[f].jobs[j].iteration_finish < completion_at) {
          completion_at = fabrics[f].jobs[j].iteration_finish;
          completion_fabric = f;
          completion_job = j;
        }
      }
    }
    if (arrival_at == kInf && completion_at == kInf && crash_at == kInf &&
        retry_at == kInf) {
      break;
    }

    // Tie precedence: completion < crash < retry < arrival. A completion
    // frees capacity before anything else reacts; a crash at the same
    // instant evicts before retries or arrivals claim the fabric — a
    // deterministic, work-conserving order.
    if (completion_at <= arrival_at && completion_at <= crash_at &&
        completion_at <= retry_at) {
      advance_clock(completion_at);
      Fabric& fabric = fabrics[completion_fabric];
      ActiveJob& job = fabric.jobs[completion_job];
      JobRecord& record = report.jobs[static_cast<std::size_t>(job.record)];
      ++job.next_iteration;
      if (job.next_iteration < record.spec.iterations) {
        schedule_iteration(completion_fabric, completion_job);
        continue;
      }
      // The job drains: re-lower the affected fabric (lazily, on its
      // next scheduled iteration) and pull from the admission queue.
      record.completion_time = now;
      ++counters.completed;
      fabric.jobs.erase(fabric.jobs.begin() +
                        static_cast<std::ptrdiff_t>(completion_job));
      fabric.dirty = true;
      drain_admission_queue();
      continue;
    }

    if (crash_at <= arrival_at && crash_at <= retry_at) {
      advance_clock(crash_at);
      const Crash crash = crashes[next_crash++];
      Fabric& fabric = fabrics[static_cast<std::size_t>(crash.fabric)];
      if (crash.whole_fabric) {
        if (!fabric.down) {
          fabric.down = true;
          ++counters.fabric_crashes;
          while (!fabric.jobs.empty()) {
            evict(static_cast<std::size_t>(crash.fabric),
                  fabric.jobs.size() - 1);
          }
          fabric.dirty = true;
        }
        continue;
      }
      ++counters.worker_crashes;
      if (fabric.down) continue;  // a dead fabric has no slots left
      // Worker slots are fabric-local and laid out in residency order:
      // resident job g owns slots [Σ<g workers, Σ<=g workers). A slot
      // index past the current total strikes air.
      int base = 0;
      std::ptrdiff_t victim = -1;
      for (std::size_t j = 0; j < fabric.jobs.size() && victim < 0; ++j) {
        const int w =
            report.jobs[static_cast<std::size_t>(fabric.jobs[j].record)]
                .spec.cluster.workers;
        if (crash.worker < base + w) victim = static_cast<std::ptrdiff_t>(j);
        base += w;
      }
      if (victim < 0) continue;
      evict(static_cast<std::size_t>(crash.fabric),
            static_cast<std::size_t>(victim));
      fabric.dirty = true;
      // The eviction freed a seat: give queued arrivals the same chance a
      // drain does.
      drain_admission_queue();
      continue;
    }

    if (retry_at <= arrival_at) {
      advance_clock(retry_at);
      const int r = retry_ready.top().second;
      retry_ready.pop();
      const int placed = try_place(r);
      if (placed >= 0) {
        Fabric& target = fabrics[static_cast<std::size_t>(placed)];
        for (std::size_t j = 0; j < target.jobs.size(); ++j) {
          if (target.jobs[j].record == r) {
            schedule_iteration(static_cast<std::size_t>(placed), j);
            break;
          }
        }
        continue;
      }
      bool any_alive = false;
      for (const Fabric& fabric : fabrics) any_alive |= !fabric.down;
      JobRecord& record = report.jobs[static_cast<std::size_t>(r)];
      if (!any_alive) {
        record.failed = true;
        ++counters.failed_jobs;
      } else {
        // Every surviving fabric is full. Fall into the admission queue —
        // bypassing its capacity, the job already held a seat — and
        // re-place on the next drain.
        admission_queue.push_back(r);
      }
      continue;
    }

    // Arrival(s): admit every job arriving at this exact instant (a
    // burst) before simulating first iterations, so one burst costs one
    // re-lowering of each touched fabric, not one per job.
    advance_clock(arrival_at);
    std::vector<std::pair<std::size_t, int>> admitted;
    while (next_arrival < arrivals.size() &&
           arrivals[next_arrival].time == arrival_at) {
      const int r = static_cast<int>(report.jobs.size());
      JobRecord record;
      record.id = r;
      record.spec = arrivals[next_arrival].spec;
      record.arrival_time = arrival_at;
      report.jobs.push_back(std::move(record));
      if (has_faults) evicted_at.push_back(0.0);
      ++counters.arrivals;
      ++next_arrival;
      const int placed = try_place(r);
      if (placed >= 0) {
        admitted.emplace_back(static_cast<std::size_t>(placed), r);
      } else if (static_cast<int>(admission_queue.size()) <
                 config_.admission_queue_capacity) {
        admission_queue.push_back(r);
        ++counters.queued;
      } else {
        report.jobs[static_cast<std::size_t>(r)].rejected = true;
        ++counters.rejected;
      }
    }
    for (const auto& [f, r] : admitted) {
      Fabric& target = fabrics[f];
      for (std::size_t j = 0; j < target.jobs.size(); ++j) {
        if (target.jobs[j].record == r) {
          schedule_iteration(f, j);
          break;
        }
      }
    }
  }

  // Jobs stranded in the admission queue (every fabric died before they
  // could place) count as failed — without faults the queue always
  // drains before the loop can end.
  if (has_faults) {
    for (const int r : admission_queue) {
      JobRecord& record = report.jobs[static_cast<std::size_t>(r)];
      if (!record.failed) {
        record.failed = true;
        ++counters.failed_jobs;
      }
    }
  }

  report.makespan = now;

  // ---- SLO aggregates ------------------------------------------------------

  std::vector<double> slowdowns;
  std::vector<double> delays;
  for (JobRecord& record : report.jobs) {
    if (record.rejected) continue;
    record.mean_iter_s = MeanOf(record.iteration_times);
    record.isolated_iter_s = IsolatedIterationTime(record.spec);
    record.slowdown = record.isolated_iter_s > 0.0
                          ? record.mean_iter_s / record.isolated_iter_s
                          : 1.0;
    if (record.failed) continue;  // never completed: not an SLO sample
    slowdowns.push_back(record.slowdown);
    delays.push_back(record.QueueDelay());
  }
  if (!slowdowns.empty()) {
    report.p50_slowdown = util::Percentile(slowdowns, 0.5);
    report.p99_slowdown = util::Percentile(slowdowns, 0.99);
    report.mean_slowdown = MeanOf(slowdowns);
    report.max_slowdown = *std::max_element(slowdowns.begin(),
                                            slowdowns.end());
    report.mean_queue_delay_s = MeanOf(delays);
    report.p50_queue_delay_s = util::Percentile(delays, 0.5);
    report.p99_queue_delay_s = util::Percentile(delays, 0.99);
  }
  if (report.makespan > 0.0) {
    report.utilization = busy_fabric_time /
                         (static_cast<double>(config_.fabrics) *
                          report.makespan);
    report.mean_active_jobs = active_job_time / report.makespan;
  }

  // Jain fairness of normalized progress (1 = the job advanced at its
  // isolated speed), per time window: catches transient unfairness a
  // whole-run average hides.
  report.window_fairness.assign(
      static_cast<std::size_t>(config_.fairness_windows), 1.0);
  if (report.makespan > 0.0) {
    for (int w = 0; w < config_.fairness_windows; ++w) {
      const double lo = report.makespan * w / config_.fairness_windows;
      const double hi = report.makespan * (w + 1) / config_.fairness_windows;
      std::vector<double> rates;
      for (const JobRecord& record : report.jobs) {
        if (record.rejected || record.failed ||
            record.iteration_times.empty()) {
          continue;
        }
        const double from = std::max(lo, record.admit_time);
        const double to = std::min(hi, record.completion_time);
        if (to <= from) continue;
        const double progress =
            ProgressAt(record, to) - ProgressAt(record, from);
        rates.push_back(progress * record.isolated_iter_s / (to - from));
      }
      if (!rates.empty()) {
        report.window_fairness[static_cast<std::size_t>(w)] =
            core::JainFairness(rates);
      }
    }
  }
  report.mean_fairness = MeanOf(report.window_fairness);

  // Robustness SLOs — only computed under faults so the fault-free
  // report (and its JSON) stays exactly what it was.
  if (has_faults) {
    if (!mttrs.empty()) {
      report.mttr_mean_s = MeanOf(mttrs);
      report.mttr_max_s = *std::max_element(mttrs.begin(), mttrs.end());
    }
    report.wasted_s = wasted_s;
    if (report.makespan > 0.0) {
      double offered = 0.0;
      double good = 0.0;
      for (const JobRecord& record : report.jobs) {
        offered += static_cast<double>(record.spec.iterations);
        if (!record.rejected && !record.failed) {
          good += static_cast<double>(record.spec.iterations);
        }
      }
      report.offered_iters_per_s = offered / report.makespan;
      report.goodput_iters_per_s = good / report.makespan;
    }
  }

  const runtime::RunnerCache::Counters cache_after = cache_.counters();
  counters.property_index_builds =
      cache_after.runner_builds - cache_before.runner_builds;
  counters.runner_cache_hits =
      cache_after.runner_hits - cache_before.runner_hits;
  counters.schedules_computed =
      cache_after.schedules_computed - cache_before.schedules_computed;
  counters.schedule_cache_hits =
      cache_after.schedule_hits - cache_before.schedule_hits;
  return report;
}

// ---- report emitters --------------------------------------------------------

util::Table ServiceReport::ToTable() const {
  util::Table table({"Metric", "Value"});
  table.AddRow({"arrivals", config.arrivals.ToString()});
  table.AddRow({"placement", config.placement});
  table.AddRow({"fabrics", std::to_string(config.fabrics)});
  table.AddRow({"duration (s)", util::Fmt(config.duration, 2)});
  table.AddRow({"jobs arrived / completed",
                std::to_string(counters.arrivals) + " / " +
                    std::to_string(counters.completed)});
  table.AddRow({"jobs queued / rejected",
                std::to_string(counters.queued) + " / " +
                    std::to_string(counters.rejected)});
  table.AddRow({"makespan (s)", util::Fmt(makespan, 2)});
  table.AddRow({"slowdown p50 / p99",
                util::Fmt(p50_slowdown, 3) + "x / " +
                    util::Fmt(p99_slowdown, 3) + "x"});
  table.AddRow({"slowdown mean / max",
                util::Fmt(mean_slowdown, 3) + "x / " +
                    util::Fmt(max_slowdown, 3) + "x"});
  table.AddRow({"queue delay mean / p99 (ms)",
                util::Fmt(mean_queue_delay_s * 1e3, 2) + " / " +
                    util::Fmt(p99_queue_delay_s * 1e3, 2)});
  table.AddRow({"utilization", util::Fmt(utilization, 3)});
  table.AddRow({"mean active jobs", util::Fmt(mean_active_jobs, 2)});
  table.AddRow({"Jain fairness (mean over windows)",
                util::Fmt(mean_fairness, 3)});
  table.AddRow({"fabric re-lowerings",
                std::to_string(counters.fabric_relowerings)});
  table.AddRow({"property-index builds / cache hits",
                std::to_string(counters.property_index_builds) + " / " +
                    std::to_string(counters.runner_cache_hits)});
  table.AddRow({"schedules computed / cache hits",
                std::to_string(counters.schedules_computed) + " / " +
                    std::to_string(counters.schedule_cache_hits)});
  table.AddRow({"simulations run", std::to_string(counters.sim_runs)});
  if (!config.faults.empty()) {
    table.AddRow({"faults", config.faults.ToString()});
    table.AddRow({"faults injected", std::to_string(counters.faults_injected)});
    table.AddRow({"worker / fabric crashes",
                  std::to_string(counters.worker_crashes) + " / " +
                      std::to_string(counters.fabric_crashes)});
    table.AddRow({"retries / replacements",
                  std::to_string(counters.retries) + " / " +
                      std::to_string(counters.replacements)});
    table.AddRow({"iterations lost / jobs failed",
                  std::to_string(counters.lost_iterations) + " / " +
                      std::to_string(counters.failed_jobs)});
    table.AddRow({"MTTR mean / max (ms)",
                  util::Fmt(mttr_mean_s * 1e3, 2) + " / " +
                      util::Fmt(mttr_max_s * 1e3, 2)});
    table.AddRow({"wasted work (s)", util::Fmt(wasted_s, 3)});
    table.AddRow({"goodput / offered (iters/s)",
                  util::Fmt(goodput_iters_per_s, 3) + " / " +
                      util::Fmt(offered_iters_per_s, 3)});
  }
  return table;
}

std::string ServiceReport::ToJson() const {
  std::string json = "{\n";
  json += "  \"arrivals\": \"" + JsonEscape(config.arrivals.ToString()) +
          "\",\n";
  json += "  \"placement\": \"" + JsonEscape(config.placement) + "\",\n";
  json += "  \"fabrics\": " + std::to_string(config.fabrics) + ",\n";
  json += "  \"duration_s\": " + FormatDouble(config.duration) + ",\n";
  json += "  \"seed\": " + std::to_string(config.seed) + ",\n";
  json += "  \"jobs\": {\"arrived\": " + std::to_string(counters.arrivals) +
          ", \"admitted\": " + std::to_string(counters.admitted) +
          ", \"queued\": " + std::to_string(counters.queued) +
          ", \"rejected\": " + std::to_string(counters.rejected) +
          ", \"completed\": " + std::to_string(counters.completed) + "},\n";
  json += "  \"slo\": {\"p50_slowdown\": " + FormatDouble(p50_slowdown) +
          ", \"p99_slowdown\": " + FormatDouble(p99_slowdown) +
          ", \"mean_slowdown\": " + FormatDouble(mean_slowdown) +
          ", \"max_slowdown\": " + FormatDouble(max_slowdown) +
          ", \"mean_queue_delay_s\": " + FormatDouble(mean_queue_delay_s) +
          ", \"p50_queue_delay_s\": " + FormatDouble(p50_queue_delay_s) +
          ", \"p99_queue_delay_s\": " + FormatDouble(p99_queue_delay_s) +
          ", \"utilization\": " + FormatDouble(utilization) +
          ", \"mean_active_jobs\": " + FormatDouble(mean_active_jobs) +
          ", \"mean_fairness\": " + FormatDouble(mean_fairness) +
          ", \"makespan_s\": " + FormatDouble(makespan) + ",\n";
  json += "    \"window_fairness\": [";
  for (std::size_t w = 0; w < window_fairness.size(); ++w) {
    json += (w == 0 ? "" : ", ") + FormatDouble(window_fairness[w]);
  }
  json += "]},\n";
  // The fault block exists only when faults were configured, so a
  // fault-free report is byte-identical to the pre-fault service
  // (pinned in tests/fault_test.cc).
  if (!config.faults.empty()) {
    json += "  \"faults\": {\"spec\": \"" +
            JsonEscape(config.faults.ToString()) +
            "\", \"injected\": " + std::to_string(counters.faults_injected) +
            ", \"worker_crashes\": " + std::to_string(counters.worker_crashes) +
            ", \"fabric_crashes\": " + std::to_string(counters.fabric_crashes) +
            ", \"retries\": " + std::to_string(counters.retries) +
            ", \"replacements\": " + std::to_string(counters.replacements) +
            ", \"lost_iterations\": " +
            std::to_string(counters.lost_iterations) +
            ", \"failed_jobs\": " + std::to_string(counters.failed_jobs) +
            ", \"retry_budget\": " + std::to_string(config.retry_budget) +
            ", \"retry_backoff_s\": " + FormatDouble(config.retry_backoff_s) +
            ",\n    \"mttr_mean_s\": " + FormatDouble(mttr_mean_s) +
            ", \"mttr_max_s\": " + FormatDouble(mttr_max_s) +
            ", \"wasted_s\": " + FormatDouble(wasted_s) +
            ", \"offered_iters_per_s\": " + FormatDouble(offered_iters_per_s) +
            ", \"goodput_iters_per_s\": " + FormatDouble(goodput_iters_per_s) +
            "},\n";
  }
  json += "  \"counters\": {\"fabric_relowerings\": " +
          std::to_string(counters.fabric_relowerings) +
          ", \"property_index_builds\": " +
          std::to_string(counters.property_index_builds) +
          ", \"runner_cache_hits\": " +
          std::to_string(counters.runner_cache_hits) +
          ", \"schedules_computed\": " +
          std::to_string(counters.schedules_computed) +
          ", \"schedule_cache_hits\": " +
          std::to_string(counters.schedule_cache_hits) +
          ", \"sim_runs\": " + std::to_string(counters.sim_runs) + "}\n";
  json += "}\n";
  return json;
}

std::string ServiceReport::JobTraceJson() const {
  std::string json = "[";
  for (std::size_t i = 0; i < jobs.size(); ++i) {
    const JobRecord& job = jobs[i];
    json += i == 0 ? "\n" : ",\n";
    json += "  {\"id\": " + std::to_string(job.id);
    json += ", \"fabric\": " + std::to_string(job.fabric);
    json += ", \"spec\": \"" + JsonEscape(job.spec.ToString()) + "\"";
    json += ", \"arrival_s\": " + FormatDouble(job.arrival_time);
    json += ", \"admit_s\": " + FormatDouble(job.admit_time);
    json += ", \"completion_s\": " + FormatDouble(job.completion_time);
    json += ", \"queue_delay_s\": " + FormatDouble(job.QueueDelay());
    json += ", \"iterations\": " +
            std::to_string(job.iteration_times.size());
    json += ", \"mean_iter_s\": " + FormatDouble(job.mean_iter_s);
    json += ", \"isolated_iter_s\": " + FormatDouble(job.isolated_iter_s);
    json += ", \"slowdown\": " + FormatDouble(job.slowdown);
    json += std::string(", \"rejected\": ") +
            (job.rejected ? "true" : "false");
    if (!config.faults.empty()) {
      json += ", \"retries\": " + std::to_string(job.retries);
      json += std::string(", \"failed\": ") + (job.failed ? "true" : "false");
    }
    json += "}";
  }
  json += "\n]\n";
  return json;
}

}  // namespace tictac::sched
