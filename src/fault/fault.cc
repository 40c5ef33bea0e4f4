#include "fault/fault.h"

#include <algorithm>
#include <cmath>
#include <optional>
#include <vector>

#include "runtime/spec.h"
#include "util/csv.h"
#include "util/parse.h"

namespace tictac::fault {
namespace {

constexpr double kInf = std::numeric_limits<double>::infinity();

// A flap expands into one down window per cycle when the service compiles
// it against an iteration; this bound keeps a one-line spec from encoding
// millions of windows (same spirit as ArrivalSpec's burst cap).
constexpr double kMaxFlapCycles = 4096.0;

// Every kind requires at= (checked first) and takes an optional fabric=.
constexpr util::ClauseKind<FaultEvent> kKinds[] = {
    {"straggler", FaultEvent::Kind::kStraggler, "at worker factor",
     "nic scale period", "worker factor at for fabric"},
    {"slowlink", FaultEvent::Kind::kSlowLink, "at nic scale",
     "worker factor period", "nic scale at for fabric"},
    // crash:worker=... is a worker crash (fabric= then attributes it);
    // crash:fabric=... alone is a whole-fabric crash. Crashes are
    // permanent, so they take no for=.
    {"crash", FaultEvent::Kind::kCrashWorker, "at worker",
     "nic factor scale period for", "worker at fabric"},
    {"crash", FaultEvent::Kind::kCrashFabric, "at fabric",
     "nic factor scale period for", "fabric at"},
    // An unbounded flap never converges, so it requires for=.
    {"flap", FaultEvent::Kind::kFlap, "at nic period for",
     "worker factor scale", "nic period at for fabric"},
};

// Validate checks the fields in this order and names the first out of
// bounds; a flap's finite for= and cycle cap are ValidateEvent's.
constexpr util::ClauseField<FaultEvent> kFields[] = {
    {"fabric", &FaultEvent::fabric, nullptr, {'[', 0, kInf, ']'},
     "must be >= 0"},
    {"at", nullptr, &FaultEvent::at, {'[', 0, kInf, ')'},
     "must be finite and >= 0"},
    // Infinity allowed: never lifts.
    {"for", nullptr, &FaultEvent::duration, {'(', 0, kInf, ']'},
     "must be > 0"},
    {"worker", &FaultEvent::worker, nullptr, {'[', 0, kInf, ']'},
     "must be >= 0"},
    {"factor", nullptr, &FaultEvent::factor, {'[', 1, kInf, ')'},
     "must be finite and >= 1"},
    {"nic", &FaultEvent::nic, nullptr, {'[', 0, kInf, ']'}, "must be >= 0"},
    {"scale", nullptr, &FaultEvent::scale, {'(', 0, 1, ']'},
     "must be in (0, 1]"},
    {"period", nullptr, &FaultEvent::period, {'(', 0, kInf, ')'},
     "must be finite and > 0"},
};

void ValidateEvent(const FaultEvent& event, std::size_t index) {
  const std::string where =
      "event " + std::to_string(index) + " ('" + event.ToString() + "') ";
  kFaultGrammar.Check(event, where);
  if (event.kind != FaultEvent::Kind::kFlap) return;
  if (!std::isfinite(event.duration)) {
    kFaultGrammar.Fail(where + "flap requires a finite for=");
  }
  if (event.duration / event.period > kMaxFlapCycles) {
    kFaultGrammar.Fail(
        where + "for/period covers " +
        runtime::FormatDouble(event.duration / event.period) +
        " cycles — the cap is " + runtime::FormatDouble(kMaxFlapCycles));
  }
}

}  // namespace

const util::ClauseGrammar<FaultEvent> kFaultGrammar = {
    "fault", "fault kind", "faults.csv", kKinds, kFields};

std::string FaultEvent::ToString() const {
  return kFaultGrammar.Print(*this);
}

std::string FaultSpec::ToString() const {
  if (!trace_path.empty()) return "trace:" + trace_path;
  std::string text;
  for (const FaultEvent& event : events) {
    if (!text.empty()) text += ';';
    text += event.ToString();
  }
  return text;
}

FaultSpec FaultSpec::Parse(std::string_view text) {
  FaultSpec spec;
  if (std::optional<std::string> path = kFaultGrammar.TracePath(text)) {
    spec.trace_path = *std::move(path);
    spec.Validate();
    return spec;
  }
  for (const std::string_view piece : util::Split(text, ';')) {
    const std::string_view clause = util::Trim(piece);
    if (clause.empty()) {
      kFaultGrammar.Fail("empty fault clause in '" + std::string(text) +
                         "' — clauses are ';'-separated, e.g. "
                         "straggler:worker=2:factor=3:at=1:for=2");
    }
    spec.events.push_back(kFaultGrammar.Read(clause, ""));
  }
  spec.Validate();
  return spec;
}

void FaultSpec::Validate() const {
  if (!trace_path.empty()) {
    if (!events.empty()) {
      kFaultGrammar.Fail(
          "a spec holds inline events or a trace path, not both");
    }
    return;  // rows are validated when the trace is materialized
  }
  for (std::size_t i = 0; i < events.size(); ++i) ValidateEvent(events[i], i);
}

std::vector<FaultEvent> FaultSpec::Materialize() const {
  std::vector<FaultEvent> timeline;
  if (trace_path.empty()) {
    timeline = events;
  } else {
    for (const auto& [line_no, line] :
         util::ReadTraceLines(trace_path, "fault")) {
      timeline.push_back(kFaultGrammar.Read(
          line, "trace '" + trace_path + "' line " +
                    std::to_string(line_no) + ": "));
    }
    for (std::size_t i = 0; i < timeline.size(); ++i) {
      ValidateEvent(timeline[i], i);
    }
  }
  std::stable_sort(timeline.begin(), timeline.end(),
                   [](const FaultEvent& a, const FaultEvent& b) {
                     return a.at < b.at;
                   });
  return timeline;
}

}  // namespace tictac::fault
