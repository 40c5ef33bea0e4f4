#include "fault/fault.h"

#include <algorithm>
#include <cmath>
#include <set>
#include <stdexcept>
#include <vector>

#include "runtime/spec.h"
#include "util/csv.h"
#include "util/parse.h"

namespace tictac::fault {
namespace {

[[noreturn]] void Fail(const std::string& message) {
  throw std::invalid_argument("fault: " + message);
}

constexpr double kInf = std::numeric_limits<double>::infinity();

// A flap expands into one down window per cycle when the service compiles
// it against an iteration; this bound keeps a one-line spec from encoding
// millions of windows (same spirit as ArrivalSpec's burst cap).
constexpr double kMaxFlapCycles = 4096.0;

// Each clause kind with the fields it requires and forbids, as
// space-separated keys; every kind also requires at=. A crash parses as a
// fabric crash and becomes a worker crash when it names a worker.
struct KindRule {
  std::string_view name;
  FaultEvent::Kind kind;
  std::string_view required;
  std::string_view forbidden;
};

constexpr KindRule kKindRules[] = {
    {"straggler", FaultEvent::Kind::kStraggler, "worker factor",
     "nic scale period"},
    {"slowlink", FaultEvent::Kind::kSlowLink, "nic scale",
     "worker factor period"},
    // Crashes are permanent, so they take no for=.
    {"crash", FaultEvent::Kind::kCrashFabric, "",
     "nic factor scale period for"},
    // An unbounded flap never converges, so it requires for=.
    {"flap", FaultEvent::Kind::kFlap, "nic period for",
     "worker factor scale"},
};

std::string_view KindName(FaultEvent::Kind kind) {
  if (kind == FaultEvent::Kind::kCrashWorker) return "crash";
  for (const KindRule& rule : kKindRules) {
    if (rule.kind == kind) return rule.name;
  }
  Fail("unknown fault kind");
}

// A clause's key=value fields: each lands in one FaultEvent member, and
// the integer ones are read as integers.
struct FieldKey {
  std::string_view key;
  int FaultEvent::*integer;
  double FaultEvent::*real;
};

constexpr FieldKey kFieldKeys[] = {
    {"worker", &FaultEvent::worker, nullptr},
    {"fabric", &FaultEvent::fabric, nullptr},
    {"nic", &FaultEvent::nic, nullptr},
    {"factor", nullptr, &FaultEvent::factor},
    {"scale", nullptr, &FaultEvent::scale},
    {"at", nullptr, &FaultEvent::at},
    {"for", nullptr, &FaultEvent::duration},
    {"period", nullptr, &FaultEvent::period},
};

// One `kind:key=value:...` clause. `where` prefixes error messages (the
// clause itself inline, or "trace '...' line N" for trace rows).
FaultEvent ParseEvent(std::string_view text, const std::string& where) {
  const std::vector<std::string_view> fields = util::Split(text, ':');
  const std::string_view head = fields.front();
  const KindRule* rule =
      std::find_if(std::begin(kKindRules), std::end(kKindRules),
                   [&](const KindRule& r) { return r.name == head; });
  if (rule == std::end(kKindRules)) {
    Fail(where + "unknown fault kind '" + std::string(head) +
         "' — expected straggler, slowlink, crash, flap, or trace:<file>");
  }
  FaultEvent event;
  event.kind = rule->kind;
  std::set<std::string_view> seen;  // the keys the clause sets
  for (std::size_t i = 1; i < fields.size(); ++i) {
    const std::string_view field = fields[i];
    const std::size_t eq = field.find('=');
    const FieldKey* key = std::find_if(
        std::begin(kFieldKeys), std::end(kFieldKeys), [&](const FieldKey& f) {
          return eq != std::string_view::npos && field.substr(0, eq) == f.key;
        });
    if (key == std::end(kFieldKeys)) {
      Fail(where + "unknown field '" + std::string(field) + "' in '" +
           std::string(text) + "'");
    }
    const std::string_view name = field.substr(0, eq + 1);  // "worker="
    const std::string_view value = field.substr(eq + 1);
    if (!seen.insert(key->key).second) {
      Fail(where + "duplicate field '" + std::string(name) + "' in '" +
           std::string(text) + "'");
    }
    if (key->integer) {
      event.*key->integer = util::ReadNumber<int>("fault", name, value);
    } else {
      event.*key->real = util::ReadNumber<double>("fault", name, value);
    }
  }
  // Per-kind required/forbidden fields, named loudly.
  const std::string clause =
      where + "'" + std::string(text) + "': " + std::string(rule->name);
  const auto check = [&](std::string_view keys, bool want, const char* verb) {
    for (const std::string_view key : util::Split(keys, ' ')) {
      if (!key.empty() && seen.contains(key) != want) {
        Fail(clause + verb + std::string(key) + "=");
      }
    }
  };
  check("at", true, " requires ");
  check(rule->required, true, " requires ");
  if (event.kind == FaultEvent::Kind::kCrashFabric) {
    // crash:worker=... is a worker crash (fabric= then attributes it);
    // crash:fabric=... alone is a whole-fabric crash.
    if (seen.contains("worker")) {
      event.kind = FaultEvent::Kind::kCrashWorker;
    } else if (!seen.contains("fabric")) {
      Fail(clause + " requires worker= or fabric=");
    }
  }
  check(rule->forbidden, false, " does not take ");
  return event;
}

std::vector<FaultEvent> ReadTrace(const std::string& path) {
  std::vector<FaultEvent> events;
  for (const auto& [line_no, line] : util::ReadTraceLines(path, "fault")) {
    events.push_back(ParseEvent(
        line, "trace '" + path + "' line " + std::to_string(line_no) + ": "));
  }
  return events;
}

void ValidateEvent(const FaultEvent& event, std::size_t index) {
  const std::string where =
      "event " + std::to_string(index) + " ('" + event.ToString() + "') ";
  if (event.fabric < 0) {
    Fail(where + "fabric must be >= 0, got " + std::to_string(event.fabric));
  }
  if (!std::isfinite(event.at) || event.at < 0.0) {
    Fail(where + "at must be finite and >= 0, got " +
         runtime::FormatDouble(event.at));
  }
  if (!(event.duration > 0.0)) {  // infinity allowed: never lifts
    Fail(where + "for must be > 0, got " +
         runtime::FormatDouble(event.duration));
  }
  switch (event.kind) {
    case FaultEvent::Kind::kStraggler:
      if (event.worker < 0) {
        Fail(where + "worker must be >= 0, got " +
             std::to_string(event.worker));
      }
      if (!std::isfinite(event.factor) || event.factor < 1.0) {
        Fail(where + "factor must be finite and >= 1, got " +
             runtime::FormatDouble(event.factor));
      }
      break;
    case FaultEvent::Kind::kSlowLink:
      if (event.nic < 0) {
        Fail(where + "nic must be >= 0, got " + std::to_string(event.nic));
      }
      if (!(event.scale > 0.0) || event.scale > 1.0) {
        Fail(where + "scale must be in (0, 1], got " +
             runtime::FormatDouble(event.scale));
      }
      break;
    case FaultEvent::Kind::kCrashWorker:
      if (event.worker < 0) {
        Fail(where + "worker must be >= 0, got " +
             std::to_string(event.worker));
      }
      break;
    case FaultEvent::Kind::kCrashFabric:
      break;
    case FaultEvent::Kind::kFlap:
      if (event.nic < 0) {
        Fail(where + "nic must be >= 0, got " + std::to_string(event.nic));
      }
      if (!(event.period > 0.0) || !std::isfinite(event.period)) {
        Fail(where + "period must be finite and > 0, got " +
             runtime::FormatDouble(event.period));
      }
      if (!std::isfinite(event.duration)) {
        Fail(where + "flap requires a finite for=");
      }
      if (event.duration / event.period > kMaxFlapCycles) {
        Fail(where + "for/period covers " +
             runtime::FormatDouble(event.duration / event.period) +
             " cycles — the cap is " + runtime::FormatDouble(kMaxFlapCycles));
      }
      break;
  }
}

}  // namespace

std::string FaultEvent::ToString() const {
  std::string text(KindName(kind));
  switch (kind) {
    case Kind::kStraggler:
      text += ":worker=" + std::to_string(worker) +
              ":factor=" + runtime::FormatDouble(factor);
      break;
    case Kind::kSlowLink:
      text += ":nic=" + std::to_string(nic) +
              ":scale=" + runtime::FormatDouble(scale);
      break;
    case Kind::kCrashWorker:
      text += ":worker=" + std::to_string(worker);
      break;
    case Kind::kCrashFabric:
      text += ":fabric=" + std::to_string(fabric);
      break;
    case Kind::kFlap:
      text += ":nic=" + std::to_string(nic) +
              ":period=" + runtime::FormatDouble(period);
      break;
  }
  text += ":at=" + runtime::FormatDouble(at);
  if (kind == Kind::kFlap ||
      ((kind == Kind::kStraggler || kind == Kind::kSlowLink) &&
       std::isfinite(duration))) {
    text += ":for=" + runtime::FormatDouble(duration);
  }
  // fabric= is the target of a fabric crash (always printed above) and an
  // attribution elsewhere (printed only when not the default 0).
  if (kind != Kind::kCrashFabric && fabric != 0) {
    text += ":fabric=" + std::to_string(fabric);
  }
  return text;
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
  if (text.rfind("trace:", 0) == 0) {
    // Everything after the first ':' is the path verbatim (paths may
    // contain further colons or semicolons).
    spec.trace_path = std::string(text.substr(6));
    if (spec.trace_path.empty()) {
      Fail("trace expects a file path, e.g. trace:faults.csv");
    }
    spec.Validate();
    return spec;
  }
  for (const std::string_view piece : util::Split(text, ';')) {
    const std::string_view clause = util::Trim(piece);
    if (clause.empty()) {
      Fail("empty fault clause in '" + std::string(text) +
           "' — clauses are ';'-separated, e.g. "
           "straggler:worker=2:factor=3:at=1:for=2");
    }
    spec.events.push_back(ParseEvent(clause, ""));
  }
  spec.Validate();
  return spec;
}

void FaultSpec::Validate() const {
  if (!trace_path.empty()) {
    if (!events.empty()) {
      Fail("a spec holds inline events or a trace path, not both");
    }
    return;  // rows are validated when the trace is materialized
  }
  for (std::size_t i = 0; i < events.size(); ++i) ValidateEvent(events[i], i);
}

std::vector<FaultEvent> FaultSpec::Materialize() const {
  std::vector<FaultEvent> timeline =
      trace_path.empty() ? events : ReadTrace(trace_path);
  if (!trace_path.empty()) {
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
