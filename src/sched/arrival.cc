#include "sched/arrival.h"

#include <cmath>
#include <limits>
#include <optional>

#include "util/csv.h"
#include "util/parse.h"
#include "util/rng.h"

namespace tictac::sched {
namespace {

[[noreturn]] void Fail(const std::string& message) {
  kArrivalGrammar.Fail(message);
}

constexpr double kInf = std::numeric_limits<double>::infinity();

constexpr util::ClauseKind<ArrivalSpec> kKinds[] = {
    {"poisson", ArrivalSpec::Kind::kPoisson, "rate", "burst", "rate"},
    {"bursty", ArrivalSpec::Kind::kBursty, "rate burst", "", "rate burst"},
};

constexpr util::ClauseField<ArrivalSpec> kFields[] = {
    {"rate", nullptr, &ArrivalSpec::rate, {'(', 0, kInf, ')'},
     "must be finite and > 0"},
    // Generous cap: a burst costs one fabric re-lowering per admitted
    // job, so a fat-fingered burst=1e9 would turn a one-line spec into
    // hours.
    {"burst", &ArrivalSpec::burst, nullptr, {'[', 1, 4096, ']'},
     "must be in [1, 4096]"},
};

std::vector<ArrivalEvent> ReadTrace(const std::string& path,
                                    double duration) {
  std::vector<ArrivalEvent> events;
  double prev_time = 0.0;
  for (const auto& [line_no, line] : util::ReadTraceLines(path, "arrival")) {
    const std::string where =
        "trace '" + path + "' line " + std::to_string(line_no);
    const std::size_t comma = line.find(',');
    if (comma == std::string::npos) {
      Fail(where + ": expected 't,<experiment spec>', got '" + line + "'");
    }
    ArrivalEvent event;
    const std::string time_text = line.substr(0, comma);
    const std::optional<double> time = util::ParseDouble(time_text);
    if (!time) {
      Fail(where + ": arrival time must be a number, got '" + time_text +
           "'");
    }
    event.time = *time;
    if (!std::isfinite(event.time) || event.time < 0.0) {
      Fail(where + ": arrival time must be finite and >= 0, got " +
           time_text);
    }
    if (event.time < prev_time) {
      Fail(where + ": arrival times must be non-decreasing (" + time_text +
           " after " + runtime::FormatDouble(prev_time) + ")");
    }
    prev_time = event.time;
    try {
      event.spec = runtime::ExperimentSpec::Parse(line.substr(comma + 1));
    } catch (const std::invalid_argument& e) {
      Fail(where + ": " + e.what());
    }
    if (event.time >= duration) continue;
    if (events.size() == kMaxArrivals) {
      Fail(where + ": more than " + std::to_string(kMaxArrivals) +
           " arrivals before --duration (kMaxArrivals)");
    }
    events.push_back(std::move(event));
  }
  return events;
}

}  // namespace

const util::ClauseGrammar<ArrivalSpec> kArrivalGrammar = {
    "arrival", "arrival process", "arrivals.csv", kKinds, kFields};

std::string ArrivalSpec::ToString() const {
  if (kind == Kind::kTrace) return "trace:" + trace_path;
  return kArrivalGrammar.Print(*this);
}

ArrivalSpec ArrivalSpec::Parse(std::string_view text) {
  ArrivalSpec spec;
  if (std::optional<std::string> path = kArrivalGrammar.TracePath(text)) {
    spec.kind = Kind::kTrace;
    spec.trace_path = *std::move(path);
  } else {
    spec = kArrivalGrammar.Read(text, "");
  }
  spec.Validate();
  return spec;
}

void ArrivalSpec::Validate() const {
  if (kind != Kind::kTrace) return kArrivalGrammar.Check(*this, "");
  if (trace_path.empty()) Fail("trace path must be non-empty");
}

std::vector<ArrivalEvent> GenerateArrivals(
    const ArrivalSpec& spec,
    const std::vector<runtime::ExperimentSpec>& workload, double duration,
    std::uint64_t seed) {
  spec.Validate();
  if (!(duration > 0.0) || !std::isfinite(duration)) {
    Fail("duration must be finite and > 0, got " +
         runtime::FormatDouble(duration));
  }
  if (spec.kind == ArrivalSpec::Kind::kTrace) {
    return ReadTrace(spec.trace_path, duration);
  }
  if (workload.empty()) {
    Fail("synthetic arrivals need a non-empty workload pool of experiment "
         "specs");
  }
  const int per_event = spec.kind == ArrivalSpec::Kind::kBursty ? spec.burst
                                                                : 1;
  const auto too_many = [&](const std::string& count) {
    Fail("at most " + std::to_string(kMaxArrivals) +
         " arrivals (kMaxArrivals), but " + spec.ToString() +
         " over --duration " + runtime::FormatDouble(duration) + " gives " +
         count + "; lower rate=" + (per_event > 1 ? ", burst=" : "") +
         " or --duration");
  };
  const double expected = spec.rate * duration * per_event;
  if (!(expected <= static_cast<double>(kMaxArrivals))) {
    too_many("~" + runtime::FormatDouble(expected));
  }
  std::vector<ArrivalEvent> events;
  util::Rng rng(seed);
  std::size_t job_index = 0;
  // The first event arrives after one full gap — an empty cluster at
  // t = 0 (standard open-system convention).
  for (double t = rng.Exponential(spec.rate); t < duration;
       t += rng.Exponential(spec.rate)) {
    if (events.size() + static_cast<std::size_t>(per_event) > kMaxArrivals) {
      too_many("more than that");  // short gaps outran the mean
    }
    for (int b = 0; b < per_event; ++b) {
      events.push_back(
          ArrivalEvent{t, workload[job_index % workload.size()]});
      ++job_index;
    }
  }
  return events;
}

}  // namespace tictac::sched
