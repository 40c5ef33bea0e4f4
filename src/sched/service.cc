#include "sched/service.h"

#include <algorithm>
#include <cmath>
#include <deque>
#include <iterator>
#include <limits>
#include <map>
#include <memory>
#include <optional>
#include <queue>
#include <set>
#include <stdexcept>
#include <tuple>
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

void RequireInRange(const char* field, int value, int lo, int hi) {
  if (value < lo || value > hi) {
    Fail(std::string(field) + " must be in [" + std::to_string(lo) + ", " +
         std::to_string(hi) + "], got " + std::to_string(value));
  }
}

constexpr int kMaxFabrics = 4096;
constexpr double kInf = std::numeric_limits<double>::infinity();

// How long after a fault window lifts (or a worker crash fires) the
// failure-aware placement policy still counts the fabric as recently
// faulty. A constant, not a knob: recency feeds a placement *preference*,
// and a fixed horizon keeps replays comparable across configs.
constexpr double kFaultRecencyS = 1.0;

// util::Rng::Stream id for the fault layer's only randomness (recovery
// backoff jitter) — an independent split of the service seed, so the
// arrival stream and per-iteration sim seeds replay untouched.
constexpr std::uint64_t kFaultRngStream = 1;

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

// ---- the fault timeline, compiled once per run (DESIGN.md §8) -------------

// One perturbation's absolute speed window on a target.
struct Window {
  double start = 0.0;
  double end = 0.0;    // +inf when the perturbation never lifts
  double speed = 1.0;  // rate multiplier while active (0 = down)
};

// One fabric target (a worker slot or a PS NIC) and its speed as a step
// function of absolute time: steps[k].second holds from steps[k].first
// to the next step, and 1 before the first.
struct TargetTimeline {
  bool on_worker = false;
  int index = 0;                                 // fabric-local slot / NIC
  std::vector<Window> windows;                   // in Materialize order
  std::vector<std::pair<double, double>> steps;  // (time, speed)
};

// Perturbations (straggler / slowlink / flap) become per-target step
// functions; crashes become an event source of the loop. An empty spec
// compiles to nothing and leaves every code path on the fault-free
// route, bit for bit (pinned in tests/fault_test.cc).
struct FaultTimeline {
  // Per fabric, in order of first appearance.
  std::vector<std::vector<TargetTimeline>> targets;
  // Per fabric, when each window or worker crash counts as recent for the
  // failure-aware policy: [start, end + kFaultRecencyS]. Fabric crashes
  // need no entry: down says it all.
  std::vector<std::vector<std::pair<double, double>>> recent;
  std::vector<fault::FaultEvent> crashes;  // in time order (Materialize sorts)
  std::uint64_t events = 0;
};

// A target's step function. At each distinct start or finite end the
// speed is the product of the windows active there (start <= t < end),
// multiplied left to right in window order: bit for bit what a product
// over every window at that instant gives. Any down window wins.
std::vector<std::pair<double, double>> CompileSteps(
    const std::vector<Window>& windows) {
  // (time, closes, window): at one instant, openings sort before closings.
  std::vector<std::tuple<double, bool, std::size_t>> edges;
  for (std::size_t i = 0; i < windows.size(); ++i) {
    edges.emplace_back(windows[i].start, false, i);
    if (std::isfinite(windows[i].end)) {
      edges.emplace_back(windows[i].end, true, i);
    }
  }
  std::sort(edges.begin(), edges.end());
  std::set<std::size_t> active;  // iterates in window order
  std::vector<std::pair<double, double>> steps;
  for (std::size_t e = 0; e < edges.size();) {
    const double t = std::get<0>(edges[e]);
    for (; e < edges.size() && std::get<0>(edges[e]) == t; ++e) {
      const auto [at, closes, i] = edges[e];
      if (closes) {
        active.erase(i);
      } else {
        active.insert(i);
      }
    }
    double speed = 1.0;
    for (const std::size_t i : active) speed *= windows[i].speed;
    steps.emplace_back(t, speed);
  }
  return steps;
}

FaultTimeline CompileFaults(const fault::FaultSpec& spec, int fabrics) {
  FaultTimeline timeline;
  timeline.targets.resize(static_cast<std::size_t>(fabrics));
  timeline.recent.resize(timeline.targets.size());
  // (fabric, on_worker, index) -> the target's position in its fabric.
  std::map<std::tuple<int, bool, int>, std::size_t> position;
  const auto add = [&](const fault::FaultEvent& e, bool on_worker, int index,
                       const Window& w) {
    const auto f = static_cast<std::size_t>(e.fabric);
    std::vector<TargetTimeline>& targets = timeline.targets[f];
    const auto [it, fresh] =
        position.try_emplace({e.fabric, on_worker, index}, targets.size());
    if (fresh) targets.push_back({on_worker, index, {}, {}});
    targets[it->second].windows.push_back(w);
    timeline.recent[f].emplace_back(w.start, w.end + kFaultRecencyS);
  };
  for (const fault::FaultEvent& e : spec.Materialize()) {
    if (e.fabric < 0 || e.fabric >= fabrics) {
      Fail("fault '" + e.ToString() + "' targets fabric " +
           std::to_string(e.fabric) + " but the service has " +
           std::to_string(fabrics));
    }
    switch (e.kind) {
      case fault::FaultEvent::Kind::kStraggler:
        add(e, true, e.worker, {e.at, e.at + e.duration, 1.0 / e.factor});
        break;
      case fault::FaultEvent::Kind::kSlowLink:
        add(e, false, e.nic, {e.at, e.at + e.duration, e.scale});
        break;
      case fault::FaultEvent::Kind::kFlap:
        // Down for the first half of every period over [at, at + for);
        // Validate() bounds the expansion at 4096 cycles.
        for (double cycle = e.at; cycle < e.at + e.duration;
             cycle += e.period) {
          add(e, false, e.nic,
              {cycle, std::min(cycle + e.period / 2.0, e.at + e.duration),
               0.0});
        }
        break;
      case fault::FaultEvent::Kind::kCrashWorker:
        timeline.recent[static_cast<std::size_t>(e.fabric)].emplace_back(
            e.at, e.at + kFaultRecencyS);
        timeline.crashes.push_back(e);
        break;
      case fault::FaultEvent::Kind::kCrashFabric:
        timeline.crashes.push_back(e);
        break;
    }
    ++timeline.events;
  }
  for (std::vector<TargetTimeline>& targets : timeline.targets) {
    for (TargetTimeline& target : targets) {
      target.steps = CompileSteps(target.windows);
    }
  }
  return timeline;
}

// One iteration's engine timeline, relative to `now`: per target, the
// speed at `now` and at every later step, skipping repeats of the last
// speed (which starts at 1). The engine samples speed at task start
// (sim/task.h). Targets past the fabric's current lowering strike air,
// exactly what a dead worker slot or an unequipped PS does. Each
// target's block is already in time order, so merging it into the
// sorted prefix (a stable merge) orders the whole list as a stable sort
// by time would.
void EmitIterationFaults(const std::vector<TargetTimeline>& targets,
                         double now, int total_workers, int servers,
                         std::vector<sim::ResourceFault>& out) {
  const auto by_time = [](const sim::ResourceFault& a,
                          const sim::ResourceFault& b) {
    return a.time < b.time;
  };
  out.clear();
  for (const TargetTimeline& target : targets) {
    if (target.index >= (target.on_worker ? total_workers : servers)) {
      continue;
    }
    const std::size_t block = out.size();
    double last_speed = 1.0;
    const auto emit = [&](double at, double speed) {
      if (speed == last_speed) return;
      last_speed = speed;
      const double rel = at - now;
      if (target.on_worker) {
        out.push_back(sim::ResourceFault{rel, target.index, speed});
        return;
      }
      // NIC n serves every worker's downlink and uplink channel pair
      // against server n (runtime/lowering.h resource layout, with W :=
      // the combined fabric's total worker count).
      for (int w = 0; w < total_workers; ++w) {
        for (const int base : {total_workers, total_workers * (1 + servers)}) {
          out.push_back({rel, base + w * servers + target.index, speed});
        }
      }
    };
    auto step = std::upper_bound(target.steps.begin(), target.steps.end(),
                                 std::pair{now, kInf});
    emit(now, step == target.steps.begin() ? 1.0 : std::prev(step)->second);
    for (; step != target.steps.end(); ++step) emit(step->first, step->second);
    std::inplace_merge(out.begin(),
                       out.begin() + static_cast<std::ptrdiff_t>(block),
                       out.end(), by_time);
  }
}

// ---- the event loop (DESIGN.md §7) -----------------------------------------

// What the loop accumulates besides the per-job records.
struct LoopIntegrals {
  double makespan = 0.0;
  double busy_fabric_time = 0.0;  // fabric-seconds with >= 1 resident job
  double active_job_time = 0.0;   // job-seconds resident
  double wasted_s = 0.0;          // partial iterations lost to evictions
  std::vector<double> mttrs;      // re-placement minus eviction time
};

// One Run() of the open system, one method per step of DESIGN.md §7–§8
// (listed in service.h).
class ServiceLoop {
 public:
  ServiceLoop(const ServiceConfig& config, runtime::RunnerCache& cache,
              std::vector<ArrivalEvent> arrivals)
      : config_(config),
        cache_(cache),
        arrivals_(std::move(arrivals)),
        timeline_(CompileFaults(config.faults, config.fabrics)),
        fabrics_(static_cast<std::size_t>(config.fabrics)),
        placement_(FindPlacementPolicy(config.placement)),
        fault_rng_(util::Rng::Stream(config.seed, kFaultRngStream)) {
    counters_.faults_injected = timeline_.events;
  }

  void Run() {
    for (Event event = NextEvent(); event.at != kInf; event = NextEvent()) {
      AdvanceClock(event.at);
      if (event.kind == Kind::kCompletion) {
        Complete(event.slot);
      } else if (event.kind == Kind::kCrash) {
        Crash(timeline_.crashes[next_crash_++]);
      } else if (event.kind == Kind::kRetry) {
        Recover();
      } else {
        Admit();
      }
    }
    // Jobs stranded in the admission queue (every fabric died before they
    // could place) count as failed. Without faults the queue always
    // drains before the loop can end.
    for (const std::size_t r : admission_queue_) records_[r].failed = true;
    counters_.failed_jobs += admission_queue_.size();
    integrals_.makespan = now_;
  }

  std::vector<JobRecord>& records() { return records_; }
  const ServiceCounters& counters() const { return counters_; }
  const LoopIntegrals& integrals() const { return integrals_; }

 private:
  // A resident's record holds its completed iterations, then the
  // in-flight one: Place is always followed by SimulateIteration before
  // any other event.
  struct ActiveJob {
    std::size_t record = 0;         // index into records_
    double iteration_finish = 0.0;  // absolute finish of the in-flight one
  };
  struct Fabric {
    std::vector<ActiveJob> jobs;  // order matches shared.lowering.jobs
    runtime::SharedFabric shared;
    std::unique_ptr<sim::TaskGraphSim> sim;
    bool dirty = false;  // membership changed since `shared` was built
    bool down = false;   // crash:fabric fired — permanently out of service
  };
  struct Slot {  // a resident's fabric and position among its residents
    std::size_t fabric = 0;
    std::size_t job = 0;
  };
  enum class Kind { kCompletion, kCrash, kRetry, kArrival };
  struct Event {
    Kind kind = Kind::kCompletion;
    double at = kInf;  // kInf: nothing left to happen
    Slot slot;         // the completing job (kCompletion only)
  };

  // The earliest pending event. Ties go to the kind considered first:
  // completion < crash < retry < arrival. A completion frees capacity
  // before anything else reacts; a crash at the same instant evicts
  // before retries or arrivals claim the fabric — a deterministic,
  // work-conserving order. Among completions, the first resident in
  // (fabric, slot) order wins.
  Event NextEvent() const {
    Event next;
    for (std::size_t f = 0; f < fabrics_.size(); ++f) {
      for (std::size_t j = 0; j < fabrics_[f].jobs.size(); ++j) {
        if (fabrics_[f].jobs[j].iteration_finish < next.at) {
          next = Event{Kind::kCompletion, fabrics_[f].jobs[j].iteration_finish,
                       Slot{f, j}};
        }
      }
    }
    const auto consider = [&next](Kind kind, double at) {
      if (at < next.at) next = Event{kind, at, {}};
    };
    if (next_crash_ < timeline_.crashes.size()) {
      consider(Kind::kCrash, timeline_.crashes[next_crash_].at);
    }
    if (!retry_ready_.empty()) consider(Kind::kRetry, retry_ready_.top().first);
    if (next_arrival_ < arrivals_.size()) {
      consider(Kind::kArrival, arrivals_[next_arrival_].time);
    }
    return next;
  }

  // Integrates utilization and mean jobs in system up to time `t`.
  void AdvanceClock(double t) {
    int busy = 0;
    int active = 0;
    for (const Fabric& fabric : fabrics_) {
      busy += fabric.jobs.empty() ? 0 : 1;
      active += static_cast<int>(fabric.jobs.size());
    }
    integrals_.busy_fabric_time += (t - now_) * busy;
    integrals_.active_job_time += (t - now_) * active;
    now_ = t;
  }

  std::vector<FabricLoad> FabricLoads() const {
    std::vector<FabricLoad> loads(fabrics_.size());
    for (std::size_t f = 0; f < fabrics_.size(); ++f) {
      loads[f].down = fabrics_[f].down;
      for (const auto& [from, to] : timeline_.recent[f]) {
        if (from <= now_ && now_ <= to) ++loads[f].recent_faults;
      }
      for (const ActiveJob& job : fabrics_[f].jobs) {
        const runtime::ExperimentSpec& spec = records_[job.record].spec;
        ++loads[f].active_jobs;
        loads[f].active_workers += spec.cluster.workers;
        loads[f].active_param_mib +=
            models::FindModel(spec.model).total_param_mib;
      }
    }
    return loads;
  }

  // Admits every job arriving at this exact instant (a burst) before
  // simulating first iterations, so one burst costs one re-lowering of
  // each touched fabric, not one per job.
  void Admit() {
    std::vector<Slot> placed;
    while (next_arrival_ < arrivals_.size() &&
           arrivals_[next_arrival_].time == now_) {
      const std::size_t r = records_.size();
      JobRecord& record = records_.emplace_back();
      record.id = static_cast<int>(r);
      record.spec = arrivals_[next_arrival_++].spec;
      record.arrival_time = now_;
      evicted_at_.push_back(0.0);
      ++counters_.arrivals;
      if (const std::optional<Slot> slot = Place(r)) {
        placed.push_back(*slot);
      } else if (static_cast<int>(admission_queue_.size()) <
                 config_.admission_queue_capacity) {
        admission_queue_.push_back(r);
        ++counters_.queued;
      } else {
        records_[r].rejected = true;
        ++counters_.rejected;
      }
    }
    for (const Slot slot : placed) SimulateIteration(slot);
  }

  // Seats record `r` after the residents of the fabric the policy picks,
  // if any. A re-placement after a crash keeps the job's original
  // admit_time (queue delay measures admission, not recovery) and
  // resumes from its completed-iteration count.
  std::optional<Slot> Place(std::size_t r) {
    JobRecord& record = records_[r];
    const int f = placement_.Place(record.spec, FabricLoads(), decisions_++,
                                   config_.max_jobs_per_fabric);
    if (f < 0) return std::nullopt;
    Fabric& fabric = fabrics_[static_cast<std::size_t>(f)];
    record.fabric = f;
    if (record.retries == 0) {
      record.admit_time = now_;
      ++counters_.admitted;
    } else {
      ++counters_.replacements;
      integrals_.mttrs.push_back(now_ - evicted_at_[r]);
    }
    // iteration_times holds exactly the completed iterations here (an
    // eviction pops the in-flight one), so the job resumes after them.
    fabric.jobs.push_back(ActiveJob{r, 0.0});
    fabric.dirty = true;
    return Slot{static_cast<std::size_t>(f), fabric.jobs.size() - 1};
  }

  // Re-lowers ONE fabric from its current membership; every other fabric
  // keeps its lowering, sim, and cached analyses untouched.
  void Relower(Fabric& fabric) {
    std::vector<runtime::MultiJobEntry> entries;
    entries.reserve(fabric.jobs.size());
    for (const ActiveJob& job : fabric.jobs) {
      entries.push_back({records_[job.record].spec, 0.0});
    }
    fabric.shared = runtime::BuildSharedFabric(entries, cache_);
    fabric.sim = std::make_unique<sim::TaskGraphSim>(
        fabric.shared.lowering.BuildSim());
    fabric.dirty = false;
    ++counters_.fabric_relowerings;
  }

  // Simulates the job's next iteration under the fabric's current mix
  // and books its finish time. Seeded spec.seed + iteration index (the
  // completed count), matching the single-job Runner::Run convention
  // bit for bit.
  void SimulateIteration(Slot slot) {
    Fabric& fabric = fabrics_[slot.fabric];
    if (fabric.dirty) Relower(fabric);
    ActiveJob& job = fabric.jobs[slot.job];
    JobRecord& record = records_[job.record];
    const runtime::Lowering& lowering = fabric.shared.lowering;
    EmitIterationFaults(timeline_.targets[slot.fabric], now_,
                        lowering.num_workers, lowering.num_ps, iter_faults_);
    sim::SimOptions& options = fabric.shared.options;
    options.faults = iter_faults_.empty() ? nullptr : &iter_faults_;
    const sim::SimResult run = fabric.sim->Run(
        options, record.spec.seed + record.iteration_times.size());
    ++counters_.sim_runs;
    const runtime::JobSlice& slice = lowering.jobs[slot.job];
    double duration = 0.0;
    for (sim::TaskId t = slice.first_task; t < slice.last_task; ++t) {
      duration = std::max(duration, run.end[static_cast<std::size_t>(t)]);
    }
    job.iteration_finish = now_ + duration;
    record.iteration_times.push_back(duration);
  }

  // The in-flight iteration finished: start the next one, or drain the
  // job (its fabric re-lowers lazily, on its next simulated iteration)
  // and pull from the admission queue.
  void Complete(Slot slot) {
    Fabric& fabric = fabrics_[slot.fabric];
    JobRecord& record = records_[fabric.jobs[slot.job].record];
    if (record.iteration_times.size() <
        static_cast<std::size_t>(record.spec.iterations)) {
      SimulateIteration(slot);
      return;
    }
    record.completion_time = now_;
    ++counters_.completed;
    fabric.jobs.erase(fabric.jobs.begin() +
                      static_cast<std::ptrdiff_t>(slot.job));
    fabric.dirty = true;
    Drain();
  }

  // Evicts a resident job: the in-flight iteration is lost, and the job
  // is either re-queued for a backed-off retry or — on an exhausted
  // budget — declared failed.
  void Evict(Slot slot) {
    Fabric& fabric = fabrics_[slot.fabric];
    const ActiveJob job = fabric.jobs[slot.job];
    fabric.jobs.erase(fabric.jobs.begin() +
                      static_cast<std::ptrdiff_t>(slot.job));
    fabric.dirty = true;
    JobRecord& record = records_[job.record];
    integrals_.wasted_s +=
        now_ - (job.iteration_finish - record.iteration_times.back());
    record.iteration_times.pop_back();
    ++counters_.lost_iterations;
    record.fabric = -1;
    evicted_at_[job.record] = now_;
    if (record.retries >= config_.retry_budget) {
      record.failed = true;
      ++counters_.failed_jobs;
      return;
    }
    ++record.retries;
    ++counters_.retries;
    // Exponential backoff with multiplicative jitter in [1, 1.5): spreads
    // a mass eviction (fabric crash) so survivors do not re-place as one
    // burst. Uniform01 is the portable draw — replays match across
    // platforms — and fault_rng_ is an independent stream, so these
    // draws never perturb arrivals or sim seeds.
    const double backoff = config_.retry_backoff_s *
                           std::ldexp(1.0, record.retries - 1) *
                           (1.0 + 0.5 * fault_rng_.Uniform01());
    retry_ready_.emplace(now_ + backoff, job.record);
  }

  void Crash(const fault::FaultEvent& crash) {
    const auto f = static_cast<std::size_t>(crash.fabric);
    Fabric& fabric = fabrics_[f];
    if (crash.kind == fault::FaultEvent::Kind::kCrashFabric) {
      if (fabric.down) return;
      fabric.down = true;
      ++counters_.fabric_crashes;
      while (!fabric.jobs.empty()) Evict(Slot{f, fabric.jobs.size() - 1});
      return;
    }
    ++counters_.worker_crashes;
    if (fabric.down) return;  // a dead fabric has no slots left
    // Worker slots are fabric-local and laid out in residency order:
    // resident job g owns slots [Σ<g workers, Σ<=g workers). A slot index
    // past the current total strikes air.
    int base = 0;
    for (std::size_t j = 0; j < fabric.jobs.size(); ++j) {
      base += records_[fabric.jobs[j].record].spec.cluster.workers;
      if (crash.worker < base) {
        Evict(Slot{f, j});
        Drain();
        return;
      }
    }
  }

  // The earliest backed-off retry re-places its job. With every
  // surviving fabric full it falls into the admission queue — bypassing
  // its capacity, the job already held a seat — and re-places on the
  // next drain; with no fabric left alive it fails.
  void Recover() {
    const std::size_t r = retry_ready_.top().second;
    retry_ready_.pop();
    if (const std::optional<Slot> slot = Place(r)) {
      SimulateIteration(*slot);
    } else if (std::any_of(fabrics_.begin(), fabrics_.end(),
                           [](const Fabric& f) { return !f.down; })) {
      admission_queue_.push_back(r);
    } else {
      records_[r].failed = true;
      ++counters_.failed_jobs;
    }
  }

  // Pulls queued jobs while the policy keeps placing them (FIFO: the
  // head blocks the rest), then simulates their first iterations.
  void Drain() {
    std::vector<Slot> placed;
    while (!admission_queue_.empty()) {
      const std::optional<Slot> slot = Place(admission_queue_.front());
      if (!slot) break;
      admission_queue_.pop_front();
      placed.push_back(*slot);
    }
    for (const Slot slot : placed) SimulateIteration(slot);
  }

  const ServiceConfig& config_;
  runtime::RunnerCache& cache_;
  const std::vector<ArrivalEvent> arrivals_;
  const FaultTimeline timeline_;
  std::vector<Fabric> fabrics_;
  const PlacementPolicy& placement_;
  util::Rng fault_rng_;

  std::vector<JobRecord> records_;  // by submission order (id)
  ServiceCounters counters_;
  LoopIntegrals integrals_;
  double now_ = 0.0;
  std::size_t next_arrival_ = 0;
  std::size_t next_crash_ = 0;
  std::size_t decisions_ = 0;  // placement decisions (round-robin state)
  std::deque<std::size_t> admission_queue_;  // record indices, FIFO
  // (ready time, record) min-heap: ties go to the lower id, so recovery
  // order is deterministic.
  std::priority_queue<std::pair<double, std::size_t>,
                      std::vector<std::pair<double, std::size_t>>,
                      std::greater<>>
      retry_ready_;
  std::vector<double> evicted_at_;  // per record: time of its last eviction
  // One iteration's fault timeline, reused so its capacity carries over.
  std::vector<sim::ResourceFault> iter_faults_;
};

// ---- the SLO report --------------------------------------------------------

// Jain fairness of normalized progress (1 = the job advanced at its
// isolated speed), per time window: catches transient unfairness a
// whole-run average hides. 1 where no job was active.
std::vector<double> WindowFairness(const std::vector<JobRecord>& jobs,
                                   int windows, double makespan) {
  std::vector<double> fairness(static_cast<std::size_t>(windows), 1.0);
  for (int w = 0; w < windows && makespan > 0.0; ++w) {
    const double lo = makespan * w / windows;
    const double hi = makespan * (w + 1) / windows;
    std::vector<double> rates;
    for (const JobRecord& record : jobs) {
      if (record.rejected || record.failed || record.iteration_times.empty()) {
        continue;
      }
      const double from = std::max(lo, record.admit_time);
      const double to = std::min(hi, record.completion_time);
      if (to <= from) continue;
      const double progress = ProgressAt(record, to) - ProgressAt(record, from);
      rates.push_back(progress * record.isolated_iter_s / (to - from));
    }
    if (!rates.empty()) {
      fairness[static_cast<std::size_t>(w)] = core::JainFairness(rates);
    }
  }
  return fairness;
}

// The SLO aggregates of a finished run: a pure function of the config,
// the job records (isolated_iter_s filled), the loop's counters and its
// integrals. It holds no cache and runs no simulation.
ServiceReport Summarize(const ServiceConfig& config,
                        std::vector<JobRecord> jobs,
                        const ServiceCounters& counters,
                        const LoopIntegrals& integrals) {
  ServiceReport report;
  report.config = config;
  report.counters = counters;
  report.makespan = integrals.makespan;
  std::vector<double> slowdowns;
  std::vector<double> delays;
  double offered = 0.0;
  double good = 0.0;
  for (JobRecord& record : jobs) {
    offered += static_cast<double>(record.spec.iterations);
    if (record.rejected) continue;
    record.mean_iter_s = util::Mean(record.iteration_times);
    record.slowdown = record.isolated_iter_s > 0.0
                          ? record.mean_iter_s / record.isolated_iter_s
                          : 1.0;
    if (record.failed) continue;  // never completed: not an SLO sample
    good += static_cast<double>(record.spec.iterations);
    slowdowns.push_back(record.slowdown);
    delays.push_back(record.QueueDelay());
  }
  if (!slowdowns.empty()) {
    report.p50_slowdown = util::Percentile(slowdowns, 0.5);
    report.p99_slowdown = util::Percentile(slowdowns, 0.99);
    report.mean_slowdown = util::Mean(slowdowns);
    report.max_slowdown = util::Max(slowdowns);
    report.mean_queue_delay_s = util::Mean(delays);
    report.p50_queue_delay_s = util::Percentile(delays, 0.5);
    report.p99_queue_delay_s = util::Percentile(delays, 0.99);
  }
  report.window_fairness =
      WindowFairness(jobs, config.fairness_windows, report.makespan);
  report.mean_fairness = util::Mean(report.window_fairness);
  // Robustness SLOs: without fault events nothing is evicted, and the
  // throughput pair is left at 0 so the fault-free report stays exactly
  // what it was.
  if (!integrals.mttrs.empty()) {
    report.mttr_mean_s = util::Mean(integrals.mttrs);
    report.mttr_max_s = util::Max(integrals.mttrs);
  }
  report.wasted_s = integrals.wasted_s;
  if (report.makespan > 0.0) {
    report.utilization =
        integrals.busy_fabric_time /
        (static_cast<double>(config.fabrics) * report.makespan);
    report.mean_active_jobs = integrals.active_job_time / report.makespan;
    if (counters.faults_injected > 0) {
      report.offered_iters_per_s = offered / report.makespan;
      report.goodput_iters_per_s = good / report.makespan;
    }
  }
  report.jobs = std::move(jobs);
  return report;
}

// The arrival stream, checked against the shared-fabric rules: any two
// jobs may be co-located, so every arrival must share arrival 0's fabric
// (CheckSharesFabric, as in MultiJobSpec::Validate; iterations and seed
// stay per-job: every job's iterations are simulated against its own
// seed).
std::vector<ArrivalEvent> MaterializeArrivals(const ServiceConfig& config) {
  std::vector<ArrivalEvent> arrivals = GenerateArrivals(
      config.arrivals, config.workload, config.duration, config.seed);
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
  return arrivals;
}

}  // namespace

void ServiceConfig::Validate() const {
  arrivals.Validate();
  RequireInRange("fabrics", fabrics, 1, kMaxFabrics);
  if (!(duration > 0.0) || !std::isfinite(duration)) {
    Fail("duration must be finite and > 0, got " + FormatDouble(duration));
  }
  RequireInRange("max_jobs_per_fabric", max_jobs_per_fabric, 1,
                 runtime::kMaxJobsPerFabric);
  if (admission_queue_capacity < 0) {
    Fail("admission_queue_capacity must be >= 0, got " +
         std::to_string(admission_queue_capacity));
  }
  RequireInRange("fairness_windows", fairness_windows, 1, 4096);
  FindPlacementPolicy(placement);  // throws, listing the registered names
  if (arrivals.kind != ArrivalSpec::Kind::kTrace && workload.empty()) {
    Fail("synthetic arrivals need >= 1 workload experiment spec");
  }
  RequireInRange("retry_budget", retry_budget, 0, 1024);
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

// Plays the loop, fills each admitted job's isolated baseline (in record
// order: the cache counters it moves are part of the report), then
// summarizes.
ServiceReport SchedulerService::Run() {
  const runtime::RunnerCache::Counters before = cache_.counters();
  ServiceLoop loop(config_, cache_, MaterializeArrivals(config_));
  loop.Run();
  std::vector<JobRecord>& jobs = loop.records();
  for (JobRecord& record : jobs) {
    if (!record.rejected) {
      record.isolated_iter_s = IsolatedIterationTime(record.spec);
    }
  }
  ServiceCounters counters = loop.counters();
  const runtime::RunnerCache::Counters after = cache_.counters();
  counters.property_index_builds = after.runner_builds - before.runner_builds;
  counters.runner_cache_hits = after.runner_hits - before.runner_hits;
  counters.schedules_computed =
      after.schedules_computed - before.schedules_computed;
  counters.schedule_cache_hits = after.schedule_hits - before.schedule_hits;
  return Summarize(config_, std::move(jobs), counters, loop.integrals());
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
