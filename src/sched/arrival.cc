#include "sched/arrival.h"

#include <cmath>
#include <optional>
#include <set>
#include <stdexcept>

#include "util/csv.h"
#include "util/parse.h"
#include "util/rng.h"

namespace tictac::sched {
namespace {

[[noreturn]] void Fail(const std::string& message) {
  throw std::invalid_argument("arrival: " + message);
}

// Generous cap: a burst costs one fabric re-lowering per admitted job,
// so a fat-fingered burst=1e9 would turn a one-line spec into hours.
constexpr int kMaxBurst = 4096;

}  // namespace

std::string ArrivalSpec::ToString() const {
  switch (kind) {
    case Kind::kPoisson:
      return "poisson:rate=" + runtime::FormatDouble(rate);
    case Kind::kBursty:
      return "bursty:rate=" + runtime::FormatDouble(rate) +
             ":burst=" + std::to_string(burst);
    case Kind::kTrace:
      return "trace:" + trace_path;
  }
  Fail("unknown arrival kind");
}

ArrivalSpec ArrivalSpec::Parse(std::string_view text) {
  ArrivalSpec spec;
  const std::size_t colon = text.find(':');
  const std::string_view head = text.substr(0, colon);
  if (head == "trace") {
    spec.kind = Kind::kTrace;
    // Everything after the first ':' is the path verbatim (paths may
    // contain further colons).
    if (colon == std::string_view::npos || colon + 1 >= text.size()) {
      Fail("trace expects a file path, e.g. trace:arrivals.csv");
    }
    spec.trace_path = std::string(text.substr(colon + 1));
    spec.Validate();
    return spec;
  }
  if (head != "poisson" && head != "bursty") {
    Fail("unknown arrival process '" + std::string(head) +
         "' — expected poisson:rate=..., bursty:rate=...:burst=..., or "
         "trace:<file>");
  }
  spec.kind = head == "poisson" ? Kind::kPoisson : Kind::kBursty;
  std::set<std::string_view> seen;  // the keys the spec sets
  const std::vector<std::string_view> fields = util::Split(text, ':');
  for (std::size_t i = 1; i < fields.size(); ++i) {
    const std::string_view field = fields[i];
    const std::size_t eq = field.find('=');
    const std::string_view key = field.substr(0, eq + 1);  // "rate="
    const std::string_view value = field.substr(eq + 1);
    if (key != "rate=" && (key != "burst=" || spec.kind != Kind::kBursty)) {
      Fail("unknown field '" + std::string(field) + "' in '" +
           std::string(text) + "'");
    }
    if (!seen.insert(key).second) {
      Fail("duplicate field '" + std::string(key) + "' in '" +
           std::string(text) + "'");
    }
    if (key == "rate=") {
      spec.rate = util::ReadNumber<double>("arrival", key, value);
    } else {
      spec.burst = util::ReadNumber<int>("arrival", key, value);
    }
  }
  if (!seen.contains("rate=")) {
    Fail(std::string(head) + " requires rate=, e.g. " + std::string(head) +
         ":rate=40");
  }
  if (spec.kind == Kind::kBursty && !seen.contains("burst=")) {
    Fail("bursty requires burst=, e.g. bursty:rate=4:burst=8");
  }
  spec.Validate();
  return spec;
}

void ArrivalSpec::Validate() const {
  if (kind == Kind::kTrace) {
    if (trace_path.empty()) Fail("trace path must be non-empty");
    return;
  }
  if (!(rate > 0.0) || !std::isfinite(rate)) {
    Fail("rate must be finite and > 0, got " + runtime::FormatDouble(rate));
  }
  if (burst < 1 || burst > kMaxBurst) {
    Fail("burst must be in [1, " + std::to_string(kMaxBurst) + "], got " +
         std::to_string(burst));
  }
}

namespace {

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
