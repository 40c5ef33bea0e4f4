// The repository benchmark program: four workloads that exercise the
// library end to end through its public API, timed from outside it.
//
//   tictac_benchmark --workload W [--seed N] [--seconds S] [--trace 0|1]
//                    [--trace-out FILE] [--work-dir DIR] [--commit SHA]
//                    [--fail-checks 0|1]
//
// benchmark/run.py builds this binary and invokes it; see
// benchmark/README.md for the workloads, the metrics and why each was
// chosen. Every input is generated from --seed, so the same seed gives
// the same inputs and the same simulated results.
//
// Output, on stdout: a '#' header line, then one line per metric,
//   <workload> <metric> <value> <unit>
// and finally `ops attempted=<n> failed=<m>`. An operation is a round of
// set-ups, one timed piece of a pass or one quality step; it fails when
// it throws or when a check of its output fails (the check is named on
// stderr). --fail-checks 1 makes every output check fail, so the failure
// path can be exercised (benchmark/selftest.py).
//
// With --trace 0 the timed pieces run untraced, on one thread, and give
// the end-to-end numbers, scaled to a reference host speed (SpeedProbe).
// With --trace 1 the program wraps a span around each call it makes into
// a library layer, alternates traced pieces with untraced ones (the
// difference is the tracing overhead), reports per-layer numbers and
// writes the spans to --trace-out as a Chrome trace.
#include <sys/resource.h>

#include <algorithm>
#include <chrono>
#include <cmath>
#include <cstdint>
#include <cstdio>
#include <cstdlib>
#include <fstream>
#include <functional>
#include <iostream>
#include <iterator>
#include <map>
#include <memory>
#include <optional>
#include <stdexcept>
#include <string>
#include <string_view>
#include <thread>
#include <unordered_map>
#include <utility>
#include <vector>

#include "core/graph.h"
#include "core/io.h"
#include "core/policy_registry.h"
#include "core/properties.h"
#include "core/schedule.h"
#include "core/tac.h"
#include "core/tic.h"
#include "core/time_oracle.h"
#include "fault/fault.h"
#include "harness/session.h"
#include "models/random_dag.h"
#include "models/zoo.h"
#include "runtime/cluster.h"
#include "runtime/clustersweep.h"
#include "runtime/lowering.h"
#include "runtime/multijob.h"
#include "runtime/runner.h"
#include "runtime/spec.h"
#include "sched/arrival.h"
#include "sched/service.h"
#include "trace/tracer.h"
#include "util/rng.h"
#include "util/stats.h"

#ifndef TICTAC_BENCH_BUILD_TYPE
#define TICTAC_BENCH_BUILD_TYPE "unknown"
#endif
#ifndef TICTAC_BENCH_COMPILER
#define TICTAC_BENCH_COMPILER "unknown"
#endif

namespace {

using namespace tictac;
using Clock = std::chrono::steady_clock;

double SecondsBetween(Clock::time_point a, Clock::time_point b) {
  return std::chrono::duration<double>(b - a).count();
}

double Median(const std::vector<double>& sample) {
  return util::Percentile(sample, 0.5);
}

double Sum(const std::vector<double>& values) {
  double total = 0.0;
  for (const double v : values) total += v;
  return total;
}

// Geometric mean of positive values: every job weighs the same whatever
// its scale, so a 1% change on any job moves the mean by the same share.
double GeoMean(const std::vector<double>& values) {
  if (values.empty()) throw std::logic_error("geometric mean of nothing");
  double log_sum = 0.0;
  for (const double v : values) {
    if (!(v > 0.0) || !std::isfinite(v)) {
      throw std::logic_error("geometric mean of a non-positive value");
    }
    log_sum += std::log(v);
  }
  return std::exp(log_sum / static_cast<double>(values.size()));
}

double PeakRssMiB() {
  rusage usage{};
  getrusage(RUSAGE_SELF, &usage);
  return static_cast<double>(usage.ru_maxrss) / 1024.0;  // KiB on Linux
}

// ---------------------------------------------------------------------------
// Options

struct Options {
  std::string workload;
  std::uint64_t seed = 1;
  double seconds = 20.0;
  bool trace = false;
  std::string trace_out;
  std::string work_dir = ".";
  std::string commit = "unknown";
  bool fail_checks = false;
};

[[noreturn]] void Usage(const std::string& error) {
  std::cerr << "tictac_benchmark: " << error << "\n"
            << "usage: tictac_benchmark --workload fig-sweep|cluster-512|"
               "serve-chaos|tac-20k [--seed N] [--seconds S] [--trace 0|1] "
               "[--trace-out FILE] [--work-dir DIR] [--commit SHA] "
               "[--fail-checks 0|1]\n";
  std::exit(2);
}

Options ParseOptions(int argc, char** argv) {
  Options options;
  for (int i = 1; i < argc; ++i) {
    const std::string flag = argv[i];
    if (i + 1 >= argc) Usage("missing value for " + flag);
    const std::string value = argv[++i];
    try {
      std::size_t used = 0;
      if (flag == "--workload") {
        options.workload = value;
      } else if (flag == "--seed") {
        if (value.empty() || value[0] == '-') Usage("bad --seed " + value);
        options.seed = std::stoull(value, &used);
        if (used != value.size()) Usage("bad --seed " + value);
      } else if (flag == "--seconds") {
        options.seconds = std::stod(value, &used);
        if (used != value.size() || !(options.seconds > 0.0) ||
            options.seconds > 3600.0) {
          Usage("bad --seconds " + value);
        }
      } else if (flag == "--trace") {
        if (value != "0" && value != "1") Usage("--trace takes 0 or 1");
        options.trace = value == "1";
      } else if (flag == "--trace-out") {
        options.trace_out = value;
      } else if (flag == "--work-dir") {
        options.work_dir = value;
      } else if (flag == "--commit") {
        options.commit = value;
      } else if (flag == "--fail-checks") {
        if (value != "0" && value != "1") Usage("--fail-checks takes 0 or 1");
        options.fail_checks = value == "1";
      } else {
        Usage("unknown flag " + flag);
      }
    } catch (const std::logic_error&) {  // stoull/stod: not a number
      Usage("bad value for " + flag + ": " + value);
    }
  }
  if (options.workload.empty()) Usage("--workload is required");
  return options;
}

// ---------------------------------------------------------------------------
// Host-time spans

// Spans around the program's calls into the library, kept in memory and
// summarized (and written out) at exit. Disabled, Span() is a plain call.
// Depth-0 spans are the program's own phases (bench.setup, bench.pass,
// bench.quality); every layer span is a child of one, so the layer spans
// of a phase account for its wall time up to the program's own glue.
class Tracer {
 public:
  struct Record {
    std::string family;
    int parent = -1;
    int request = 0;  // spec or pass index the span worked for
    int depth = 0;
    double start = 0.0;  // seconds since the tracer was created
    double end = 0.0;
    double duration() const { return end - start; }
  };

  explicit Tracer(bool enabled) : enabled_(enabled), origin_(Clock::now()) {}

  template <typename Fn>
  decltype(auto) Span(std::string_view family, int request, Fn&& fn) {
    if (!enabled_) return fn();
    const Scope scope(*this, family, request);
    return fn();
  }

  // Items (tasks, recvs) a family processed, for its throughput metric.
  void Count(const std::string& family, double items) {
    if (enabled_) work_[family] += items;
  }

  const std::vector<Record>& records() const { return records_; }
  double work(const std::string& family) const {
    const auto it = work_.find(family);
    return it == work_.end() ? 0.0 : it->second;
  }

  // Durations of every span of `family`, in start order.
  std::vector<double> Durations(std::string_view family) const {
    std::vector<double> out;
    for (const Record& r : records_) {
      if (r.family == family) out.push_back(r.duration());
    }
    return out;
  }

  double Busy(std::string_view family) const {
    double total = 0.0;
    for (const Record& r : records_) {
      if (r.family == family) total += r.duration();
    }
    return total;
  }

  // Sum of the durations of the direct children of span `id`.
  double ChildTime(int id) const {
    double total = 0.0;
    for (const Record& r : records_) {
      if (r.parent == id) total += r.duration();
    }
    return total;
  }

  void WriteChrome(const std::string& path) const {
    std::vector<trace::Span> spans;
    spans.reserve(records_.size());
    for (const Record& r : records_) {
      trace::Span span;
      span.name = r.family + " #" + std::to_string(r.request);
      span.worker = r.request;
      span.start = r.start;
      span.end = r.end;
      spans.push_back(std::move(span));
    }
    trace::WriteChromeTrace(spans, path);
  }

 private:
  class Scope {
   public:
    Scope(Tracer& tracer, std::string_view family, int request)
        : tracer_(tracer), id_(static_cast<int>(tracer.records_.size())) {
      Record record;
      record.family = std::string(family);
      record.parent = tracer.open_.empty() ? -1 : tracer.open_.back();
      record.depth = static_cast<int>(tracer.open_.size());
      record.request = request;
      tracer.records_.push_back(std::move(record));
      tracer.open_.push_back(id_);
      // Read the clock last so the span excludes its own bookkeeping.
      tracer.records_[static_cast<std::size_t>(id_)].start = tracer.Now();
    }
    ~Scope() {
      tracer_.records_[static_cast<std::size_t>(id_)].end = tracer_.Now();
      tracer_.open_.pop_back();
    }
    Scope(const Scope&) = delete;
    Scope& operator=(const Scope&) = delete;

   private:
    Tracer& tracer_;
    int id_;
  };

  double Now() const { return SecondsBetween(origin_, Clock::now()); }

  bool enabled_;
  Clock::time_point origin_;
  std::vector<Record> records_;
  std::vector<int> open_;
  std::map<std::string, double> work_;
};

// ---------------------------------------------------------------------------
// Metrics, checks and operation accounting

class Bench {
 public:
  Bench(const Options& options, int parallel_threads)
      : options_(options),
        parallel_threads_(parallel_threads),
        tracer_(options.trace) {
    fail_checks_ = options.fail_checks;
  }

  const Options& options() const { return options_; }
  // Threads for the one parallel measurement (fig-sweep's traced run);
  // all timed work runs on one thread.
  int parallel_threads() const { return parallel_threads_; }
  Tracer& tracer() { return tracer_; }

  void Metric(const std::string& name, double value, const std::string& unit) {
    std::printf("%s %s %s %s\n", options_.workload.c_str(), name.c_str(),
                runtime::FormatDouble(value).c_str(), unit.c_str());
  }

  // Runs one operation: counts it, and counts it failed when it throws or
  // returns false. Returns whether it succeeded.
  bool Attempt(const std::string& what, const std::function<bool()>& op) {
    ++attempted_;
    bool ok = false;
    try {
      ok = op();
    } catch (const std::exception& e) {
      std::cerr << what << ": " << e.what() << "\n";
    }
    if (!ok) {
      ++failed_;
      std::cerr << "FAILED: " << what << "\n";
    }
    return ok;
  }

  // A named output check inside an operation; logs the failure. Every
  // check fails under --fail-checks 1.
  static bool Check(bool ok, const std::string& what) {
    if (fail_checks_) ok = false;
    if (!ok) std::cerr << "check failed: " << what << "\n";
    return ok;
  }

  void Finish() {
    std::printf("ops attempted=%d failed=%d\n", attempted_, failed_);
    std::fflush(stdout);
  }

 private:
  static inline bool fail_checks_ = false;
  const Options& options_;
  int parallel_threads_;
  Tracer tracer_;
  int attempted_ = 0;
  int failed_ = 0;
};

// ---------------------------------------------------------------------------
// Host speed

// A fixed piece of work that calls no library code, timed between the
// workload's pieces to read how fast the host runs at that moment.
//
// On the shared host the same library work takes up to 1.7 times as long
// at some times as at others, in phases lasting seconds to minutes, with
// no CPU steal: other tenants share the physical core. Every kernel tried
// slowed with the library (r = 0.8-0.97 over 20-second windows), but by
// its own factor: a pointer walk or a sort slowed less than the library,
// hash-map inserts more. So the probe mixes kernels on both sides, in
// about equal parts of its time: independent integer chains, inserts into
// a hash map of 50K keys, and a floating-point pass over two 256 KiB
// arrays. Over ten minutes of 20-second windows, library time (Session
// runs, TAC, a cluster sweep) varied 24-36% (interquartile range over
// median) and its ratio to this probe 4-9%.
class SpeedProbe {
 public:
  // The probe's time at the reference host speed. Scaled times are in
  // seconds at this speed. On a shared 4-vCPU Xeon VM a probe run took
  // 13-19 ms, depending on the phase.
  static constexpr double kReferenceSeconds = 0.018;

  SpeedProbe() : fx_(1 << 15), fy_(fx_.size()) {
    std::uint64_t x = 0x9E3779B97F4A7C15ull;
    for (std::size_t i = 0; i < fx_.size(); ++i) {
      x ^= x << 13;
      x ^= x >> 7;
      x ^= x << 17;
      fx_[i] = static_cast<double>(x >> 11) * 0x1p-53;
      fy_[i] = fx_[i] * 0.5;
    }
  }

  // The median wall time of three runs of the probe, in seconds: one
  // run can be cut short by an interrupt or a context switch.
  double Measure() {
    std::vector<double> runs;
    for (int i = 0; i < 3; ++i) runs.push_back(Run());
    return Median(runs);
  }

 private:
  double Run() {
    const Clock::time_point start = Clock::now();
    std::uint64_t c0 = sink_ | 1, c1 = c0 * 3, c2 = c0 * 5, c3 = c0 * 7;
    for (int i = 0; i < 2000000; ++i) {
      c0 ^= c0 << 13, c0 ^= c0 >> 7, c0 ^= c0 << 17;
      c1 ^= c1 << 13, c1 ^= c1 >> 7, c1 ^= c1 << 17;
      c2 += c0 ^ c1;
      c3 += c2 >> 3;
    }
    std::uint64_t keys = 0;
    std::uint64_t key = c3;
    for (int round = 0; round < 3; ++round) {
      std::unordered_map<std::uint64_t, std::uint64_t> map;
      map.reserve(1 << 16);
      for (std::uint64_t i = 0; i < 60000; ++i) {
        key = key * 6364136223846793005ull + 1442695040888963407ull;
        map[(key >> 20) % 50000] += i;
      }
      keys += map.size();
    }
    double sum = 0.0;
    for (int round = 0; round < 120; ++round) {
      for (std::size_t i = 0; i < fx_.size(); ++i) {
        fy_[i] = fy_[i] * 0.999 + fx_[i] * 0.5;
        sum += std::min(fy_[i], fx_[i]);
      }
    }
    sink_ = c0 + c1 + c2 + keys + static_cast<std::uint64_t>(sum);
    return SecondsBetween(start, Clock::now());
  }

  std::vector<double> fx_;
  std::vector<double> fy_;
  std::uint64_t sink_ = 0;
};

// A workload's timed work: a pass is `units` pieces, run round-robin.
// run(tracer, index) runs piece index % units, for the
// (index / units + 1)-th time, with spans on `tracer` when it is enabled,
// and returns whether its output checks held.
struct Pass {
  int units = 1;
  std::function<bool(Tracer& tracer, int index)> run;
};

// The untraced run: cold set-ups and timed pieces alternate until
// --seconds have gone by and every piece has run at least once, failed
// pieces included, so work that keeps failing still ends the run.
// `setup` runs one set-up and returns its wall time. A round of set-ups
// (repeated for at least 0.1 s) runs before the first piece and before
// any piece that finds set-ups below a tenth of the time gone by; at
// least three set-ups run in all. Each piece starts from the state the
// last set-up built.
//
// The probe runs before the first piece and after every piece and
// set-up round. Each sample is scaled to the reference host speed by the
// mean of the two probe times around it: scaled = wall *
// kReferenceSeconds / probe. setup_s is the median scaled set-up, and
// pass_s the sum over pieces of each piece's median scaled time (over its
// samples whose checks held, or over all of them when none did; the
// failed count then marks the run wrong). The unscaled pass time and the
// host's speed are printed too. Returns pass_s.
double MeasureRun(Bench& bench, const std::function<double()>& setup,
                  const Pass& pass) {
  constexpr double kSetupRoundSeconds = 0.1;
  constexpr double kSetupShare = 0.1;
  constexpr std::size_t kMinSetups = 3;
  const auto units = static_cast<std::size_t>(pass.units);
  SpeedProbe probe;
  probe.Measure();  // warm-up: first-touch page faults and cold caches
  std::vector<double> probes{probe.Measure()};
  // Scale of the samples between the last probe and the next one.
  const auto scale = [&] {
    probes.push_back(probe.Measure());
    return 2.0 * SpeedProbe::kReferenceSeconds /
           (probes[probes.size() - 2] + probes.back());
  };
  std::vector<double> setups;
  double setup_wall = 0.0;  // time spent in set-up rounds
  std::vector<std::vector<double>> walls(units);       // every sample
  std::vector<std::vector<double>> samples(units);     // every sample, scaled
  std::vector<std::vector<double>> ok_samples(units);  // checks held, scaled
  const auto setup_round = [&] {
    std::vector<double> round;
    const Clock::time_point start = Clock::now();
    const bool ok = bench.Attempt("setup", [&] {
      do {
        round.push_back(setup());
      } while (SecondsBetween(start, Clock::now()) < kSetupRoundSeconds);
      return true;
    });
    setup_wall += SecondsBetween(start, Clock::now());
    const double k = scale();
    for (const double wall : round) setups.push_back(wall * k);
    return ok;
  };
  const Clock::time_point begin = Clock::now();
  int index = 0;
  while (index < pass.units ||
         SecondsBetween(begin, Clock::now()) < bench.options().seconds) {
    const auto unit = static_cast<std::size_t>(index) % units;
    const bool setup_due =
        index == 0 ||
        setup_wall < kSetupShare * SecondsBetween(begin, Clock::now());
    // A piece needs a set-up that completed.
    if (setup_due && !setup_round()) break;
    const Clock::time_point start = Clock::now();
    const bool ok = bench.Attempt("piece " + std::to_string(index), [&] {
      return pass.run(bench.tracer(), index);
    });
    const double wall = SecondsBetween(start, Clock::now());
    const double scaled = wall * scale();
    walls[unit].push_back(wall);
    samples[unit].push_back(scaled);
    if (ok) ok_samples[unit].push_back(scaled);
    ++index;
  }
  while (setups.size() < kMinSetups && setup_round()) {
  }
  if (setups.empty() || samples.back().empty()) {
    throw std::runtime_error("a set-up failed before every piece had run");
  }
  double pass_s = 0.0;
  double pass_wall_s = 0.0;
  for (std::size_t u = 0; u < units; ++u) {
    pass_s += Median(ok_samples[u].empty() ? samples[u] : ok_samples[u]);
    pass_wall_s += Median(walls[u]);
  }
  bench.Metric("setup_s", Median(setups), "s");
  bench.Metric("setup_samples", static_cast<double>(setups.size()), "count");
  bench.Metric("pass_s", pass_s, "s");
  bench.Metric("pass_samples", static_cast<double>(index), "count");
  bench.Metric("pass_wall_s", pass_wall_s, "s");
  bench.Metric("host_speed", SpeedProbe::kReferenceSeconds / Median(probes),
               "x");
  return pass_s;
}

struct AlternatingWalls {
  std::vector<double> untraced;
  std::vector<double> traced;
  // Time the layer spans cover inside each traced piece.
  std::vector<double> traced_layers;
};

// The traced run's timed loop: round r runs a piece untraced, then the
// same piece traced inside a bench.pass span, until --seconds have
// elapsed (at least one round).
AlternatingWalls AlternatingLoop(Bench& bench,
                                 const std::function<bool(int)>& untraced,
                                 const std::function<bool(int)>& traced) {
  Tracer& tracer = bench.tracer();
  AlternatingWalls walls;
  const Clock::time_point begin = Clock::now();
  int round = 0;
  do {
    bench.Attempt("untraced piece " + std::to_string(round), [&] {
      const Clock::time_point start = Clock::now();
      const bool ok = untraced(round);
      walls.untraced.push_back(SecondsBetween(start, Clock::now()));
      return ok;
    });
    bench.Attempt("traced piece " + std::to_string(round), [&] {
      const int span = static_cast<int>(tracer.records().size());
      const Clock::time_point start = Clock::now();
      const bool ok =
          tracer.Span("bench.pass", round, [&] { return traced(round); });
      walls.traced.push_back(SecondsBetween(start, Clock::now()));
      walls.traced_layers.push_back(tracer.ChildTime(span));
      return ok;
    });
    ++round;
  } while (SecondsBetween(begin, Clock::now()) < bench.options().seconds);
  if (walls.traced.empty() || walls.untraced.empty()) {
    throw std::runtime_error("no traced and untraced piece pair completed");
  }
  return walls;
}

// The same piece, untraced then traced, for workloads whose traced piece
// makes exactly the calls of the untraced one. Round r runs piece r.
AlternatingWalls AlternatingLoop(Bench& bench, const Pass& pass) {
  return AlternatingLoop(
      bench,
      [&](int index) {
        Tracer off(false);
        return pass.run(off, index);
      },
      [&](int index) { return pass.run(bench.tracer(), index); });
}

// Every layer family any workload records. A workload reports all of
// them, with zero calls for the layers it does not call, so traced runs
// of different workloads print the same metric names.
const std::vector<std::string>& AllFamilies() {
  static const std::vector<std::string> families = {
      "runtime.runner_build",     "core.schedule.baseline",
      "core.schedule.tic",        "core.schedule.tac",
      "core.property_index",      "core.tic",
      "core.tac",                 "ir.lower",
      "sim.build",                "sim.run",
      "runtime.stats",            "runtime.clustersweep_build",
      "runtime.clustersweep_run", "sched.service_run",
      "report.emit",
  };
  return families;
}

// Metrics that only some workloads measure; the others report them as 0
// so every traced run prints the same names.
struct LayerExtras {
  double runner_cache_hit_ratio = 0.0;
  double parallel_speedup = 0.0;
  double harness_self_pct = 0.0;
  double sim_components = 0.0;
  double sched_sim_runs = 0.0;
  double sched_fabric_relowerings = 0.0;
  double sched_property_index_builds = 0.0;
  double sched_schedules_computed = 0.0;
  double sched_retries = 0.0;
  double sched_runner_cache_hit_ratio = 0.0;
  double sched_schedule_cache_hit_ratio = 0.0;
  double sched_sim_runs_per_s = 0.0;
  double sched_useful_iter_ratio = 0.0;
};

// Per-layer numbers of a traced run, and the Chrome trace.
//
// trace.wall_s is the time in the program's phases (depth-0 spans),
// trace.coverage_pct the share of it the layer spans cover, and
// trace.overhead_pct the traced pieces' total time against that of the
// untraced ones, which ran the same pieces. Each family reports calls,
// busy time and its share of the traced wall time, and the median and
// tail call latency; the tail is the highest of p90/p99 with at least
// ten samples beyond it.
void ReportTrace(Bench& bench, const AlternatingWalls& walls,
                 const LayerExtras& extras) {
  const Tracer& tracer = bench.tracer();
  double wall = 0.0;
  double covered = 0.0;
  const std::vector<Tracer::Record>& records = tracer.records();
  for (std::size_t id = 0; id < records.size(); ++id) {
    if (records[id].depth != 0) continue;
    wall += records[id].duration();
    covered += tracer.ChildTime(static_cast<int>(id));
  }
  const auto share = [&](double part) {
    return wall > 0.0 ? 100.0 * part / wall : 0.0;
  };
  bench.Metric("trace.wall_s", wall, "s");
  bench.Metric("trace.coverage_pct", share(covered), "%");
  bench.Metric("trace.overhead_pct",
               100.0 * (Sum(walls.traced) / Sum(walls.untraced) - 1.0),
               "%");

  for (const std::string& family : AllFamilies()) {
    const std::vector<double> durations = tracer.Durations(family);
    const double busy = tracer.Busy(family);
    bench.Metric(family + ".calls", static_cast<double>(durations.size()),
                 "count");
    bench.Metric(family + ".busy_s", busy, "s");
    bench.Metric(family + ".busy_pct", share(busy), "%");
    if (durations.empty()) continue;
    bench.Metric(family + ".p50_ms", 1e3 * Median(durations), "ms");
    if (durations.size() >= 1000) {
      bench.Metric(family + ".p99_ms",
                   1e3 * util::Percentile(durations, 0.99), "ms");
    } else if (durations.size() >= 100) {
      bench.Metric(family + ".p90_ms",
                   1e3 * util::Percentile(durations, 0.90), "ms");
    }
  }

  // Throughputs over the work counted with Tracer::Count.
  const auto rate = [&](const std::string& work_family,
                        const std::vector<std::string>& busy_families) {
    double busy = 0.0;
    for (const std::string& f : busy_families) busy += tracer.Busy(f);
    return busy > 0.0 ? tracer.work(work_family) / busy : 0.0;
  };
  bench.Metric("core.recvs_per_s",
               rate("core.recvs", {"core.tic", "core.tac", "core.schedule.tic",
                                   "core.schedule.tac"}),
               "1/s");
  bench.Metric("ir.tasks_per_s", rate("ir.lower", {"ir.lower"}), "1/s");
  bench.Metric("sim.tasks_per_s", rate("sim.run", {"sim.run"}), "1/s");

  bench.Metric("harness.runner_cache_hit_ratio", extras.runner_cache_hit_ratio,
               "ratio");
  bench.Metric("harness.parallel_speedup", extras.parallel_speedup, "x");
  bench.Metric("harness.self_pct", extras.harness_self_pct, "%");
  bench.Metric("sim.components", extras.sim_components, "count");
  bench.Metric("sched.sim_runs", extras.sched_sim_runs, "count");
  bench.Metric("sched.fabric_relowerings", extras.sched_fabric_relowerings,
               "count");
  bench.Metric("sched.property_index_builds",
               extras.sched_property_index_builds, "count");
  bench.Metric("sched.schedules_computed", extras.sched_schedules_computed,
               "count");
  bench.Metric("sched.retries", extras.sched_retries, "count");
  bench.Metric("sched.runner_cache_hit_ratio",
               extras.sched_runner_cache_hit_ratio, "ratio");
  bench.Metric("sched.schedule_cache_hit_ratio",
               extras.sched_schedule_cache_hit_ratio, "ratio");
  bench.Metric("sched.sim_runs_per_s", extras.sched_sim_runs_per_s, "1/s");
  bench.Metric("sched.useful_iter_ratio", extras.sched_useful_iter_ratio,
               "ratio");
  if (!bench.options().trace_out.empty()) {
    tracer.WriteChrome(bench.options().trace_out);
  }
}

// The two schedule-quality numbers every workload reports.
void QualityMetrics(Bench& bench, const std::vector<double>& speedups,
                    const std::vector<double>& iteration_times) {
  bench.Metric("sched_speedup_x", GeoMean(speedups), "x");
  bench.Metric("sched_speedup_jobs", static_cast<double>(speedups.size()),
               "count");
  bench.Metric("sim_iter_s", GeoMean(iteration_times), "s");
}

// ---------------------------------------------------------------------------
// fig-sweep: the paper's Figure 7/9/10 workflow through harness::Session.


std::string FigSweepText(std::uint64_t seed) {
  return "envG:workers=2,4,8:ps=1,2:task=inference,training "
         "models=AlexNet v2,Inception v3,ResNet-50 v2,VGG-16,ResNet-101 v2 "
         "policies=baseline,tic,tac iterations=10 seed=" +
         std::to_string(seed);
}

bool RowsValid(const harness::ResultTable& table) {
  for (const harness::ResultRow& row : table.rows()) {
    for (const double v : {row.mean_iteration_s, row.throughput,
                           row.mean_efficiency, row.mean_overlap}) {
      if (!std::isfinite(v) || !(v > 0.0)) return false;
    }
    if (!std::isfinite(row.max_straggler_pct) || row.max_straggler_pct < 0.0 ||
        row.unique_recv_orders < 1) {
      return false;
    }
  }
  return true;
}

// Runner::Run's steps after scheduling: lower the cluster, build the
// simulator, then simulate `iterations` iterations seeded seed, seed+1,
// ... and take each one's statistics, every step in its own span.
std::vector<runtime::IterationStats> SimulateSchedule(
    Tracer& tracer, const core::Graph& graph, const core::Schedule& schedule,
    const std::vector<int>& ps_of_param, const runtime::ClusterConfig& config,
    int iterations, std::uint64_t seed, int request) {
  const runtime::Lowering lowering = tracer.Span("ir.lower", request, [&] {
    return runtime::LowerCluster(graph, schedule, ps_of_param, config);
  });
  tracer.Count("ir.lower", static_cast<double>(lowering.tasks.size()));
  sim::SimOptions options = config.sim;
  options.enforce_gates =
      schedule.size() == graph.size() && schedule.CoversAllRecvs(graph);
  options.network = lowering.flow.get();
  const sim::TaskGraphSim sim =
      tracer.Span("sim.build", request, [&] { return lowering.BuildSim(); });
  std::vector<runtime::IterationStats> stats;
  for (int i = 0; i < iterations; ++i) {
    const sim::SimResult run = tracer.Span("sim.run", request, [&] {
      return sim.Run(options, seed + static_cast<std::uint64_t>(i));
    });
    tracer.Count("sim.run", static_cast<double>(lowering.tasks.size()));
    stats.push_back(tracer.Span("runtime.stats", request, [&] {
      return runtime::ComputeIterationStats(lowering, run);
    }));
  }
  return stats;
}

// One spec through Runner::Run's steps (schedule, then SimulateSchedule),
// each in its own span. Must equal Session::Run bit for bit.
harness::ResultRow ReplaySpec(Tracer& tracer, harness::Session& session,
                              const runtime::ExperimentSpec& spec,
                              int request) {
  const runtime::Runner& runner = tracer.Span(
      "runtime.runner_build", request,
      [&]() -> const runtime::Runner& { return session.runner(spec); });
  const runtime::ClusterConfig& config = runner.config();
  const core::Graph& graph = runner.worker_graph();
  if (config.topology != runtime::Topology::kPsFabric) {
    throw std::logic_error("replay covers the parameter-server fabric only");
  }
  const auto policy = core::PolicyRegistry::Global().Create(spec.policy);
  const core::Schedule schedule =
      tracer.Span("core.schedule." + spec.policy, request,
                  [&] { return runner.MakeSchedule(*policy); });
  if (spec.policy != "baseline") {
    tracer.Count("core.recvs", static_cast<double>(
                                   graph.OpsOfKind(core::OpKind::kRecv).size()));
  }
  runtime::ExperimentResult result;
  result.samples_per_iteration = models::FindModel(spec.model).standard_batch *
                                 config.batch_factor * config.num_workers;
  result.iterations =
      SimulateSchedule(tracer, graph, schedule, runner.ps_of_param(), config,
                       spec.iterations, spec.seed, request);
  harness::ResultRow row;
  row.spec = spec;
  row.mean_iteration_s = result.MeanIterationTime();
  row.throughput = result.Throughput();
  row.mean_efficiency = result.MeanEfficiency();
  row.mean_overlap = result.MeanOverlap();
  row.max_straggler_pct = result.MaxStragglerPct();
  row.mean_straggler_pct = result.MeanStragglerPct();
  row.unique_recv_orders = result.UniqueRecvOrders();
  return row;
}

void FigSweepQuality(Bench& bench, const harness::ResultTable& table) {
  std::vector<double> speedups;
  std::vector<double> iteration_times;
  double tac_gain_sum = 0.0;
  int tac_rows = 0;
  double baseline_straggler = 0.0;
  double tac_straggler = 0.0;
  for (const harness::ResultRow& row : table.rows()) {
    iteration_times.push_back(row.mean_iteration_s);
    if (row.spec.policy == "baseline") continue;
    const double gain = table.SpeedupVsBaseline(row);
    speedups.push_back(1.0 + gain);
    if (row.spec.policy != "tac") continue;
    tac_gain_sum += gain;
    ++tac_rows;
    tac_straggler += row.max_straggler_pct;
    runtime::ExperimentSpec twin = row.spec;
    twin.policy = "baseline";
    for (const harness::ResultRow& candidate : table.rows()) {
      if (candidate.spec == twin) {
        baseline_straggler += candidate.max_straggler_pct;
      }
    }
  }
  QualityMetrics(bench, speedups, iteration_times);
  bench.Metric("tac_speedup_pct", 100.0 * tac_gain_sum / tac_rows, "%");
  bench.Metric("straggler_reduction_x", baseline_straggler / tac_straggler,
               "x");
}

// The sweep split into the pieces the timed loop runs: one per (model,
// task), each the worker and PS counts under every policy (18 specs, so
// every TIC/TAC spec and its baseline twin share a piece).
struct SweepPieces {
  std::vector<runtime::ExperimentSpec> specs;
  std::vector<std::vector<runtime::ExperimentSpec>> pieces;
  std::vector<int> first_spec;  // index in `specs` of each piece's first spec
};

SweepPieces SplitSweep(std::uint64_t seed) {
  SweepPieces out;
  out.specs = runtime::SweepSpec::Parse(FigSweepText(seed)).Expand();
  for (std::size_t i = 0; i < out.specs.size(); ++i) {
    const runtime::ExperimentSpec& spec = out.specs[i];
    if (out.pieces.empty() || out.pieces.back().front().model != spec.model ||
        out.pieces.back().front().cluster.training != spec.cluster.training) {
      out.pieces.emplace_back();
      out.first_spec.push_back(static_cast<int>(i));
    }
    out.pieces.back().push_back(spec);
  }
  return out;
}

void RunFigSweep(Bench& bench) {
  const Options& options = bench.options();
  Tracer& tracer = bench.tracer();
  SweepPieces sweep;
  std::unique_ptr<harness::Session> session;
  double runner_hits = 0.0;

  // Set-up: parse and expand the sweep, then build the Runner (worker
  // graph and PropertyIndex) of every distinct (model, cluster) key.
  const auto setup = [&] {
    const Clock::time_point start = Clock::now();
    runner_hits = 0.0;
    tracer.Span("bench.setup", 0, [&] {
      sweep = SplitSweep(options.seed);
      session = std::make_unique<harness::Session>();
      for (std::size_t i = 0; i < sweep.specs.size(); ++i) {
        const std::size_t before = session->cached_runners();
        tracer.Span("runtime.runner_build", static_cast<int>(i),
                    [&] { session->runner(sweep.specs[i]); });
        if (session->cached_runners() == before) runner_hits += 1.0;
      }
    });
    return SecondsBetween(start, Clock::now());
  };
  const int pieces = static_cast<int>(SplitSweep(options.seed).pieces.size());

  if (!options.trace) {
    // Each piece's CSV must equal its first run's; the first runs of all
    // pieces together are the sweep's rows.
    std::vector<std::string> first_csv(static_cast<std::size_t>(pieces));
    std::vector<harness::ResultRow> rows;
    const double pass_s = MeasureRun(
        bench, setup, {pieces, [&](Tracer&, int index) {
                         const auto p = static_cast<std::size_t>(index % pieces);
                         const harness::ResultTable table =
                             session->RunAll(sweep.pieces[p], 1);
                         const std::string csv = table.ToCsv();
                         if (index >= pieces) {
                           return Bench::Check(csv == first_csv[p],
                                               "piece CSV equals its first run's");
                         }
                         first_csv[p] = csv;
                         rows.insert(rows.end(), table.rows().begin(),
                                     table.rows().end());
                         return Bench::Check(RowsValid(table),
                                             "rows finite and positive");
                       }});
    bench.Attempt("quality", [&] {
      const harness::ResultTable table(std::move(rows));
      FigSweepQuality(bench, table);
      return Bench::Check(table.size() == 180, "180 rows");
    });
    bench.Metric("sim_job_iters_per_s",
                 static_cast<double>(sweep.specs.size()) *
                     sweep.specs.front().iterations / pass_s,
                 "1/s");
    return;
  }

  // Traced: one traced cold set-up; then rounds, piece by piece, of a
  // serial untraced RunAll and the traced serial replay of the same
  // specs; then serial and threaded RunAlls of the first piece for the
  // executor's parallel speedup.
  bench.Attempt("setup", [&] {
    setup();
    return true;
  });
  std::vector<std::string> serial_csv(static_cast<std::size_t>(pieces));
  const AlternatingWalls walls = AlternatingLoop(
      bench,
      [&](int round) {
        const auto p = static_cast<std::size_t>(round % pieces);
        serial_csv[p] = session->RunAll(sweep.pieces[p], 1).ToCsv();
        return true;
      },
      [&](int round) {
        const auto p = static_cast<std::size_t>(round % pieces);
        std::vector<harness::ResultRow> rows;
        for (std::size_t i = 0; i < sweep.pieces[p].size(); ++i) {
          rows.push_back(ReplaySpec(
              tracer, *session, sweep.pieces[p][i],
              sweep.first_spec[p] + static_cast<int>(i)));
        }
        const harness::ResultTable table(std::move(rows));
        const std::string csv =
            tracer.Span("report.emit", round, [&] { return table.ToCsv(); });
        return Bench::Check(csv == serial_csv[p],
                            "traced replay reproduces the Session rows");
      });
  // The first piece serial and then threaded, back to back so both see
  // the same host phase, three times: the speedup is the ratio of the
  // medians.
  std::vector<double> serial_walls;
  std::vector<double> threaded_walls;
  bench.Attempt("threaded RunAll", [&] {
    bool equal = true;
    for (int i = 0; i < 3; ++i) {
      Clock::time_point start = Clock::now();
      session->RunAll(sweep.pieces.front(), 1);
      serial_walls.push_back(SecondsBetween(start, Clock::now()));
      start = Clock::now();
      const std::string csv =
          session->RunAll(sweep.pieces.front(), bench.parallel_threads())
              .ToCsv();
      threaded_walls.push_back(SecondsBetween(start, Clock::now()));
      equal = equal && csv == serial_csv.front();
    }
    return Bench::Check(equal, "threaded RunAll equals serial");
  });

  LayerExtras extras;
  extras.runner_cache_hit_ratio =
      runner_hits / static_cast<double>(sweep.specs.size());
  if (threaded_walls.size() == serial_walls.size() &&
      !threaded_walls.empty()) {
    extras.parallel_speedup = Median(serial_walls) / Median(threaded_walls);
  }
  // What RunAll spends outside the layer calls (its executor, row
  // building), as a share of the serial RunAll.
  extras.harness_self_pct =
      100.0 * (1.0 - Sum(walls.traced_layers) / Sum(walls.untraced));
  ReportTrace(bench, walls, extras);
}

// ---------------------------------------------------------------------------
// cluster-512: 512 jobs over 8 flow-level fat-tree fabrics through
// runtime::ClusterSweep and the sharded engine.

// The cluster as four sweeps of 128 jobs, two 64-job fabrics each: the
// AlexNet v2 TAC group twice, then VGG-16 under TAC and under the
// baseline. Every job is a 2-worker training job on a fat-tree fabric
// with flow-level fairness. A timed piece is one sweep's Run; one thread
// runs all of cluster-512 in about 9 s, too long for one sample.
constexpr int kClusterSweeps = 4;
constexpr int kClusterJobsPerSweep = 128;

std::string ClusterSweepText(std::uint64_t seed, int sweep) {
  constexpr const char* kGroups[kClusterSweeps] = {
      "AlexNet v2 policy=tac", "AlexNet v2 policy=tac", "VGG-16 policy=tac",
      "VGG-16 policy=baseline"};
  return "128x{envG:workers=2:ps=1:training:flow:pods=2:oversub=2 model=" +
         std::string(kGroups[sweep]) + " iterations=1 seed=" +
         std::to_string(seed) + "}";
}

bool ClusterResultValid(const runtime::ClusterSweepResult& result) {
  return Bench::Check(result.jobs == kClusterJobsPerSweep, "128 jobs") &&
         Bench::Check(result.fabrics == 2, "2 fabrics") &&
         Bench::Check(result.components == result.fabrics,
                      "one sim component per fabric") &&
         Bench::Check(result.p50_job_iteration_s > 0.0 &&
                          result.p50_job_iteration_s <=
                              result.p99_job_iteration_s,
                      "0 < p50 <= p99") &&
         Bench::Check(result.fairness > 0.0 && result.fairness <= 1.0,
                      "fairness in (0, 1]");
}

// Pairs the i-th TIC/TAC replica of a spec with the i-th baseline
// replica of the same spec (its twin) and returns twin/own iteration
// time per pair. Jobs without a twin are skipped.
std::vector<double> TwinSpeedups(
    const std::vector<runtime::MultiJobEntry>& jobs,
    const std::vector<double>& iteration_s) {
  std::map<std::string, std::vector<std::size_t>> baselines;
  for (std::size_t j = 0; j < jobs.size(); ++j) {
    if (jobs[j].spec.policy == "baseline") {
      baselines[jobs[j].spec.ToString()].push_back(j);
    }
  }
  std::map<std::string, std::size_t> used;
  std::vector<double> speedups;
  for (std::size_t j = 0; j < jobs.size(); ++j) {
    if (jobs[j].spec.policy == "baseline") continue;
    runtime::ExperimentSpec twin = jobs[j].spec;
    twin.policy = "baseline";
    const std::string key = twin.ToString();
    const auto it = baselines.find(key);
    if (it == baselines.end() || used[key] >= it->second.size()) continue;
    speedups.push_back(iteration_s[it->second[used[key]++]] / iteration_s[j]);
  }
  return speedups;
}

void RunCluster512(Bench& bench) {
  const Options& options = bench.options();
  Tracer& tracer = bench.tracer();
  std::vector<std::vector<runtime::MultiJobEntry>> jobs(kClusterSweeps);
  std::vector<std::unique_ptr<runtime::ClusterSweep>> sweeps(kClusterSweeps);

  // Set-up: for each sweep, parse its job group, partition it over
  // fabrics, build every job's Runner and schedule, lower and merge the
  // fabrics.
  const auto setup = [&] {
    for (auto& sweep : sweeps) sweep.reset();  // bounds peak memory
    const Clock::time_point start = Clock::now();
    tracer.Span("bench.setup", 0, [&] {
      for (int u = 0; u < kClusterSweeps; ++u) {
        const auto i = static_cast<std::size_t>(u);
        jobs[i] = runtime::ParseJobGroups(ClusterSweepText(options.seed, u),
                                          kClusterJobsPerSweep);
        sweeps[i] = tracer.Span("runtime.clustersweep_build", u, [&] {
          return std::make_unique<runtime::ClusterSweep>(
              jobs[i], runtime::ClusterSweepOptions{.fabrics = 0,
                                                    .num_threads = 1});
        });
      }
    });
    return SecondsBetween(start, Clock::now());
  };

  // Piece u simulates one iteration of every job of sweep u, seeded
  // seed + u; every run of a sweep must give its first run's JSON,
  // whichever set-up built the sweep.
  std::vector<std::optional<runtime::ClusterSweepResult>> first(
      kClusterSweeps);
  std::vector<std::string> first_json(kClusterSweeps);
  const Pass pass{
      kClusterSweeps, [&](Tracer& t, int index) {
        const auto u = static_cast<std::size_t>(index % kClusterSweeps);
        const runtime::ClusterSweepResult result =
            t.Span("runtime.clustersweep_run", index, [&] {
              return sweeps[u]->Run(1, options.seed + u);
            });
        const std::string json =
            t.Span("report.emit", index, [&] { return result.ToJson(); });
        const bool valid = ClusterResultValid(result);
        if (!first[u]) {
          first[u] = result;
          first_json[u] = json;
          return valid;
        }
        return valid &&
               Bench::Check(json == first_json[u], "runs give identical JSON");
      }};
  const auto all_ran = [&] {
    return std::all_of(first.begin(), first.end(),
                       [](const auto& result) { return result.has_value(); });
  };

  if (!options.trace) {
    const double pass_s = MeasureRun(bench, setup, pass);
    if (!all_ran()) return;
    bench.Attempt("quality", [&] {
      // The population of all four sweeps, in job order.
      std::vector<runtime::MultiJobEntry> all_jobs;
      std::vector<double> iteration_s;
      std::vector<double> fairness;
      int fabrics = 0;
      for (std::size_t u = 0; u < first.size(); ++u) {
        all_jobs.insert(all_jobs.end(), jobs[u].begin(), jobs[u].end());
        iteration_s.insert(iteration_s.end(),
                           first[u]->job_mean_iteration_s.begin(),
                           first[u]->job_mean_iteration_s.end());
        fairness.push_back(first[u]->fairness);
        fabrics += first[u]->fabrics;
      }
      QualityMetrics(bench, TwinSpeedups(all_jobs, iteration_s), iteration_s);
      bench.Metric("p50_job_iter_s", util::Percentile(iteration_s, 0.50), "s");
      bench.Metric("p99_job_iter_s", util::Percentile(iteration_s, 0.99), "s");
      bench.Metric("fairness", util::Mean(fairness), "ratio");
      return Bench::Check(iteration_s.size() == 512, "512 jobs") &&
             Bench::Check(fabrics == 8, "8 fabrics");
    });
    bench.Metric("sim_job_iters_per_s",
                 kClusterSweeps * kClusterJobsPerSweep / pass_s, "1/s");
    return;
  }

  bench.Attempt("setup", [&] {
    setup();
    return true;
  });
  const AlternatingWalls walls = AlternatingLoop(bench, pass);
  LayerExtras extras;
  for (const auto& result : first) {
    if (result) extras.sim_components += result->components;
  }
  ReportTrace(bench, walls, extras);
}

// ---------------------------------------------------------------------------
// serve-chaos: the open-system scheduler service with a fault timeline.

constexpr int kServeServices = 4;
constexpr int kServeJobs = 10;  // per service
constexpr double kServeDuration = 0.5;
constexpr const char* kServeTemplates[] = {
    "envG:workers=4:ps=2:training model=Inception v2 policy=tac iterations=5",
    "envG:workers=2:ps=2:training model=ResNet-50 v2 policy=tic iterations=5",
    "envG:workers=2:ps=2 model=VGG-16 policy=tac iterations=5",
};
constexpr const char* kServeFaults =
    "straggler:worker=1:factor=3:at=0.5:for=1; crash:fabric=1:at=1; "
    "flap:nic=0:period=0.25:at=0.25:for=1";

// Writes service `service`'s arrival trace: an open loop submitting one
// job every 50 ms (20 jobs/s) for 0.5 s, templates cycled round-robin
// over the jobs of all services, each job with its own simulation seed
// drawn from the run seed. Seeded Poisson times made the run's work and
// its SLOs swing with the seed (the job count by 16%, the mean contended
// iteration time by 3% even at a fixed count); the per-job seeds still
// vary every iteration time, and with them the placements, from seed to
// seed.
std::string WriteServeTrace(const Options& options, int service) {
  const std::string path = options.work_dir + "/serve-chaos-arrivals-seed" +
                           std::to_string(options.seed) + "-" +
                           std::to_string(service) + ".csv";
  std::ofstream out(path);
  if (!out) throw std::runtime_error("cannot write " + path);
  out << "# serve-chaos arrivals, seed " << options.seed << ", service "
      << service << "\n";
  for (int i = 0; i < kServeJobs; ++i) {
    const auto job = static_cast<std::uint64_t>(service * kServeJobs + i);
    out << runtime::FormatDouble(kServeDuration * i / kServeJobs) << ','
        << kServeTemplates[job % std::size(kServeTemplates)]
        << " seed=" << util::Rng::StreamSeed(options.seed, job) << "\n";
  }
  if (!out.flush()) throw std::runtime_error("cannot write " + path);
  return path;
}

sched::ServiceConfig MakeServiceConfig(const std::string& trace_path,
                                       std::uint64_t seed) {
  sched::ServiceConfig config;
  config.arrivals = sched::ArrivalSpec::Parse("trace:" + trace_path);
  config.fabrics = 4;
  config.duration = kServeDuration;
  config.placement = "least-loaded";
  config.seed = seed;
  config.faults = fault::FaultSpec::Parse(kServeFaults);
  config.Validate();
  return config;
}

bool ServiceReportValid(const sched::ServiceReport& report) {
  const sched::ServiceCounters& c = report.counters;
  return Bench::Check(
             report.jobs.size() == static_cast<std::size_t>(kServeJobs),
             "10 jobs arrived") &&
         Bench::Check(c.completed + c.rejected + c.failed_jobs == c.arrivals,
                      "completed + rejected + failed == arrived");
}

void ServeChaosQuality(Bench& bench, harness::Session& session,
                       const std::vector<sched::ServiceReport>& reports) {
  // Each job's baseline twin: its spec under the baseline policy, run
  // alone on its cluster exactly as the service runs the isolated
  // reference (JobRecord::isolated_iter_s) with the job's own policy.
  std::vector<double> speedups;
  std::vector<double> iteration_times;
  std::vector<double> p99_slowdowns;
  std::vector<double> goodputs;
  for (const sched::ServiceReport& report : reports) {
    for (const sched::JobRecord& job : report.jobs) {
      if (job.rejected || job.failed) continue;
      iteration_times.push_back(job.mean_iter_s);
      runtime::ExperimentSpec twin = job.spec;
      twin.policy = "baseline";
      speedups.push_back(session.Run(twin).MeanIterationTime() /
                         job.isolated_iter_s);
    }
    p99_slowdowns.push_back(report.p99_slowdown);
    goodputs.push_back(report.goodput_iters_per_s);
  }
  QualityMetrics(bench, speedups, iteration_times);
  bench.Metric("p99_slowdown", util::Mean(p99_slowdowns), "x");
  bench.Metric("goodput_iters_per_s", util::Mean(goodputs), "1/s");
}

double CompletedIterations(const sched::ServiceReport& report) {
  double iterations = 0.0;
  for (const sched::JobRecord& job : report.jobs) {
    iterations += static_cast<double>(job.iteration_times.size());
  }
  return iterations;
}

void RunServeChaos(Bench& bench) {
  const Options& options = bench.options();
  Tracer& tracer = bench.tracer();
  std::vector<std::string> trace_paths;
  for (int u = 0; u < kServeServices; ++u) {
    trace_paths.push_back(WriteServeTrace(options, u));
  }
  std::vector<sched::ServiceConfig> configs;
  std::unique_ptr<harness::Session> session;

  // Set-up: parse and validate the four service configurations, read
  // their arrival streams (10 job specs each) and, in a new Session,
  // build the Runner (worker graph and PropertyIndex) of every distinct
  // (model, cluster) among them: 3 of 40 lookups build. The quality
  // step's baseline twins run on these runners. Each pass then runs cold
  // services: users fill a service's own caches on every run.
  const auto setup = [&] {
    const Clock::time_point start = Clock::now();
    tracer.Span("bench.setup", 0, [&] {
      configs.clear();
      session = std::make_unique<harness::Session>();
      int request = 0;
      for (const std::string& path : trace_paths) {
        configs.push_back(MakeServiceConfig(path, options.seed));
        const sched::ServiceConfig& config = configs.back();
        const std::vector<sched::ArrivalEvent> events =
            sched::GenerateArrivals(config.arrivals, config.workload,
                                    config.duration, config.seed);
        if (events.size() != static_cast<std::size_t>(kServeJobs)) {
          throw std::runtime_error("arrival trace holds " +
                                   std::to_string(events.size()) + " jobs");
        }
        for (const sched::ArrivalEvent& event : events) {
          tracer.Span("runtime.runner_build", request++,
                      [&] { session->runner(event.spec); });
        }
      }
    });
    return SecondsBetween(start, Clock::now());
  };

  // Each piece is a cold run of one service; all runs of a service must
  // agree.
  std::vector<std::string> first_json(kServeServices);
  std::vector<sched::ServiceReport> first(kServeServices);
  const Pass pass{
      kServeServices, [&](Tracer& t, int index) {
        const auto u = static_cast<std::size_t>(index % kServeServices);
        sched::ServiceReport report = t.Span("sched.service_run", index, [&] {
          sched::SchedulerService service(configs[u]);
          return service.Run();
        });
        const std::string json =
            t.Span("report.emit", index, [&] { return report.ToJson(); });
        const bool valid = ServiceReportValid(report);
        if (first_json[u].empty()) {
          first_json[u] = json;
          first[u] = std::move(report);
          return valid;
        }
        return valid && Bench::Check(json == first_json[u],
                                     "cold runs give identical ToJson()");
      }};
  double completed = 0.0;  // iterations completed by one run of each service
  const auto all_ran = [&] {
    return std::none_of(first_json.begin(), first_json.end(),
                        [](const std::string& json) { return json.empty(); });
  };

  if (!options.trace) {
    const double pass_s = MeasureRun(bench, setup, pass);
    if (!all_ran()) return;
    bench.Attempt("quality", [&] {
      ServeChaosQuality(bench, *session, first);
      return true;
    });
    for (const sched::ServiceReport& report : first) {
      completed += CompletedIterations(report);
    }
    bench.Metric("sim_job_iters_per_s", completed / pass_s, "1/s");
    return;
  }

  bench.Attempt("setup", [&] {
    setup();
    return true;
  });
  const AlternatingWalls walls = AlternatingLoop(bench, pass);
  LayerExtras extras;
  if (session) {
    extras.runner_cache_hit_ratio =
        1.0 - static_cast<double>(session->cached_runners()) /
                  (kServeServices * kServeJobs);
  }
  if (all_ran()) {
    const auto count = [](std::uint64_t n) { return static_cast<double>(n); };
    const auto ratio = [](double hits, double misses) {
      return hits + misses > 0.0 ? hits / (hits + misses) : 0.0;
    };
    // Counters of one run of each service, summed.
    sched::ServiceCounters c;
    double lost = 0.0;
    for (const sched::ServiceReport& report : first) {
      const sched::ServiceCounters& r = report.counters;
      c.sim_runs += r.sim_runs;
      c.fabric_relowerings += r.fabric_relowerings;
      c.property_index_builds += r.property_index_builds;
      c.schedules_computed += r.schedules_computed;
      c.retries += r.retries;
      c.runner_cache_hits += r.runner_cache_hits;
      c.schedule_cache_hits += r.schedule_cache_hits;
      lost += count(r.lost_iterations);
      completed += CompletedIterations(report);
    }
    extras.sched_sim_runs = count(c.sim_runs);
    extras.sched_fabric_relowerings = count(c.fabric_relowerings);
    extras.sched_property_index_builds = count(c.property_index_builds);
    extras.sched_schedules_computed = count(c.schedules_computed);
    extras.sched_retries = count(c.retries);
    extras.sched_runner_cache_hit_ratio =
        ratio(count(c.runner_cache_hits), count(c.property_index_builds));
    extras.sched_schedule_cache_hit_ratio =
        ratio(count(c.schedule_cache_hits), count(c.schedules_computed));
    // Traced round r ran service r % 4, and every run of a service is
    // the same (deterministic) run.
    double traced_sim_runs = 0.0;
    for (std::size_t r = 0; r < walls.traced.size(); ++r) {
      traced_sim_runs += count(first[r % kServeServices].counters.sim_runs);
    }
    extras.sched_sim_runs_per_s =
        traced_sim_runs / tracer.Busy("sched.service_run");
    extras.sched_useful_iter_ratio = ratio(completed, lost);
  }
  ReportTrace(bench, walls, extras);
}

// ---------------------------------------------------------------------------
// tac-20k: TIC and TAC on a 60k-op random DAG (20k recvs).

constexpr int kTacIterations = 2;

core::Graph MakeTacGraph(std::uint64_t seed) {
  models::RandomDagOptions dag;
  dag.num_recvs = 20000;
  dag.num_computes = 40000;
  dag.num_layers = 8;
  dag.edge_probability = 0.05;
  return models::MakeRandomDag(dag, seed);
}

// The cluster the schedules are computed for and simulated on.
runtime::ClusterConfig TacCluster() {
  return runtime::EnvG(2, 1, /*training=*/false);
}

struct TacSchedules {
  core::Schedule tic;
  core::Schedule tac;
  std::string text;  // both schedules serialized, the offline tool's output
};

TacSchedules ScheduleTacGraph(Tracer& tracer, const core::Graph& graph,
                              int request) {
  // The oracle Runner::MakeSchedule builds: each PS NIC is time-shared by
  // every worker, so a transfer sees bandwidth / workers.
  const runtime::ClusterConfig config = TacCluster();
  core::PlatformModel effective = config.platform;
  effective.bandwidth_bps /= config.num_workers;
  const core::AnalyticalTimeOracle oracle(effective);

  const core::PropertyIndex index =
      tracer.Span("core.property_index", request,
                  [&] { return core::PropertyIndex(graph); });
  TacSchedules out;
  out.tic = tracer.Span("core.tic", request, [&] { return core::Tic(index); });
  out.tac = tracer.Span("core.tac", request,
                        [&] { return core::Tac(index, oracle); });
  tracer.Count("core.recvs", 2.0 * static_cast<double>(index.recvs().size()));
  out.text = tracer.Span("report.emit", request, [&] {
    return core::ScheduleToString(out.tic, graph) +
           core::ScheduleToString(out.tac, graph);
  });
  return out;
}

// Mean simulated iteration makespan of `graph` under `schedule` (empty =
// baseline), lowered and simulated as Runner::Run does.
double SimulateTacGraph(Tracer& tracer, const core::Graph& graph,
                        const core::Schedule& schedule, std::uint64_t seed,
                        int request) {
  // A random DAG's parameters are its recv indices; ps=1 holds them all.
  const std::vector<int> ps_of_param(
      graph.OpsOfKind(core::OpKind::kRecv).size(), 0);
  double makespan_sum = 0.0;
  for (const runtime::IterationStats& stats :
       SimulateSchedule(tracer, graph, schedule, ps_of_param, TacCluster(),
                        kTacIterations, seed, request)) {
    if (!(stats.makespan > 0.0) || !std::isfinite(stats.makespan)) {
      throw std::runtime_error("non-positive simulated makespan");
    }
    makespan_sum += stats.makespan;
  }
  return makespan_sum / kTacIterations;
}

void RunTac20k(Bench& bench) {
  const Options& options = bench.options();
  Tracer& tracer = bench.tracer();
  core::Graph graph;

  // Set-up: generate the graph (the workload's input).
  const auto setup = [&] {
    const Clock::time_point start = Clock::now();
    tracer.Span("bench.setup", 0, [&] { graph = MakeTacGraph(options.seed); });
    return SecondsBetween(start, Clock::now());
  };

  // Every pass must produce the first pass's schedules.
  std::optional<TacSchedules> first;
  const Pass pass{1, [&](Tracer& t, int index) {
                    TacSchedules schedules = ScheduleTacGraph(t, graph, index);
                    const bool covered =
                        Bench::Check(schedules.tic.CoversAllRecvs(graph),
                                     "TIC covers every recv") &&
                        Bench::Check(schedules.tac.CoversAllRecvs(graph),
                                     "TAC covers every recv");
                    if (!first) {
                      first = std::move(schedules);
                      return covered;
                    }
                    return covered &&
                           Bench::Check(schedules.text == first->text,
                                        "schedules identical across passes");
                  }};

  // Simulates baseline and TAC for kTacIterations each.
  const auto quality = [&] {
    bench.Attempt("quality", [&] {
      return tracer.Span("bench.quality", 0, [&] {
        const double baseline =
            SimulateTacGraph(tracer, graph, core::Schedule{}, options.seed, 0);
        const double tac =
            SimulateTacGraph(tracer, graph, first->tac, options.seed, 1);
        QualityMetrics(bench, {baseline / tac}, {baseline, tac});
        bench.Metric("tac_speedup_pct", 100.0 * (baseline / tac - 1.0), "%");
        return true;
      });
    });
  };

  if (!options.trace) {
    MeasureRun(bench, setup, pass);
    if (first) quality();
    return;
  }

  bench.Attempt("setup", [&] {
    setup();
    return true;
  });
  const AlternatingWalls walls = AlternatingLoop(bench, pass);
  if (first) quality();
  ReportTrace(bench, walls, LayerExtras{});
}

}  // namespace

int main(int argc, char** argv) {
  const Options options = ParseOptions(argc, argv);
  const std::map<std::string, std::function<void(Bench&)>> workloads = {
      {"fig-sweep", RunFigSweep},
      {"cluster-512", RunCluster512},
      {"serve-chaos", RunServeChaos},
      {"tac-20k", RunTac20k},
  };
  const auto workload = workloads.find(options.workload);
  if (workload == workloads.end()) Usage("unknown workload " + options.workload);

  // Timings from any other build type mean nothing; there is no override.
  if (std::string_view(TICTAC_BENCH_BUILD_TYPE) != "Release") {
    std::cerr << "tictac_benchmark: refusing to run a " TICTAC_BENCH_BUILD_TYPE
                 " build; configure benchmark/ with CMAKE_BUILD_TYPE=Release\n";
    return 2;
  }

  // The timed work runs on one thread, the thread the host-speed probe
  // runs on: the probe reads the speed of its own core only. The parallel
  // speedup in fig-sweep's traced run uses two threads at most: on a
  // shared 4-core host, four threads made run medians vary about twice as
  // much as two threads did.
  const int nproc = static_cast<int>(std::thread::hardware_concurrency());
  const int parallel_threads = std::clamp(nproc, 1, 2);
  std::printf(
      "# tictac_benchmark workload=%s seed=%llu seconds=%s trace=%d nproc=%d "
      "threads=1 parallel_threads=%d commit=%s compiler=%s build_type=%s\n",
      options.workload.c_str(), static_cast<unsigned long long>(options.seed),
      runtime::FormatDouble(options.seconds).c_str(), options.trace ? 1 : 0,
      nproc, parallel_threads, options.commit.c_str(), TICTAC_BENCH_COMPILER,
      TICTAC_BENCH_BUILD_TYPE);

  Bench bench(options, parallel_threads);
  try {
    workload->second(bench);
    bench.Metric("peak_rss_mb", PeakRssMiB(), "MiB");
  } catch (const std::exception& e) {
    std::cerr << "tictac_benchmark: " << options.workload << ": " << e.what()
              << "\n";
    return 1;
  }
  bench.Finish();
  return 0;
}
