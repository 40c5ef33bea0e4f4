// Job-arrival processes for the open-system cluster scheduler
// (DESIGN.md §7).
//
// The multi-job subsystem (runtime/multijob.h) co-locates a *fixed* job
// set; a production cluster is an open system — tenants submit jobs over
// time and the scheduler admits, places, and re-schedules continuously.
// ArrivalSpec describes *when* jobs arrive, in a compact text grammar
// that round-trips exactly (Parse(ToString()) == *this):
//
//   poisson:rate=40              memoryless arrivals, 40 jobs/second
//   bursty:rate=4:burst=8        bursts of 8 simultaneous jobs, burst
//                                starts arriving at Poisson rate 4/s
//   trace:path/to/arrivals.csv   replay a recorded submission log
//
// poisson and bursty are rows of kArrivalGrammar: util/clause.h reads,
// prints and bounds them, the same reader as the fault grammar's.
//
// Synthetic processes draw inter-arrival gaps from util::Rng::Exponential
// (portable inverse-CDF, so a seeded stream is bit-identical on every
// platform) and take *what* arrives from a workload pool of
// ExperimentSpec templates, cycled round-robin. A trace supplies both:
// each line is `t,<experiment spec>` — arrival time in seconds, one
// comma, then the spec verbatim (specs contain commas in list-valued
// fields, so the line splits at the FIRST comma only; no CSV quoting).
#pragma once

#include <cstddef>
#include <cstdint>
#include <string>
#include <string_view>
#include <vector>

#include "runtime/spec.h"
#include "util/clause.h"

namespace tictac::sched {

// When jobs arrive. What arrives comes from the workload pool (or the
// trace file itself); see GenerateArrivals.
struct ArrivalSpec {
  enum class Kind { kPoisson, kBursty, kTrace };

  Kind kind = Kind::kPoisson;
  // Arrival events per second (poisson: jobs, bursty: bursts). > 0.
  double rate = 1.0;
  // Jobs per burst (bursty only). >= 1.
  int burst = 1;
  // Submission-log path (trace only).
  std::string trace_path;

  // Canonical text form; Parse(ToString()) == *this.
  std::string ToString() const;

  // Throws std::invalid_argument (naming the bad token) on malformed
  // input. The parsed spec is Validate()d before being returned.
  static ArrivalSpec Parse(std::string_view text);

  // rate finite and > 0, burst in [1, 4096], non-empty trace path.
  // Throws std::invalid_argument naming the offending field.
  void Validate() const;

  friend bool operator==(const ArrivalSpec&, const ArrivalSpec&) = default;
};

// The synthetic kinds and their keys as rows, for Parse, ToString and
// Validate and for tests that walk every row; trace:<file> is read by
// the reader's trace head.
extern const util::ClauseGrammar<ArrivalSpec> kArrivalGrammar;

// One job submission: the cluster clock time it arrives and the complete
// experiment it asks for.
struct ArrivalEvent {
  double time = 0.0;
  runtime::ExperimentSpec spec;

  friend bool operator==(const ArrivalEvent&, const ArrivalEvent&) = default;
};

// The most jobs one stream may hold. Every arrival is a job the service
// places, lowers and simulates, so a stream past this is a typo (say
// rate=1e308), not a workload; uncapped, such a stream was materialized
// until memory ran out.
inline constexpr std::size_t kMaxArrivals = 100'000;

// Materializes the arrival stream over [0, duration).
//
// Synthetic processes (poisson/bursty) draw gaps from Rng(seed) and
// assign workload[i % workload.size()] to the i-th arriving job, so the
// stream is deterministic in (spec, workload, duration, seed) — same
// seed, bit-identical stream. The workload pool must be non-empty for
// synthetic kinds and is ignored for traces.
//
// Traces are read from spec.trace_path: one `t,<experiment spec>` line
// per job, '#'-prefixed comment lines and blank lines skipped, times
// finite, >= 0 and non-decreasing. Rows at t >= duration are dropped
// (the service stops admitting at `duration`). Throws std::runtime_error
// if the file cannot be read and std::invalid_argument (with the line
// number) for malformed rows.
//
// A stream of more than kMaxArrivals jobs throws std::invalid_argument
// naming rate= and --duration (or the trace row past the cap): checked
// against rate × duration × burst before any draw, and counted as the
// stream grows, since exponential gaps can fall short of their mean.
std::vector<ArrivalEvent> GenerateArrivals(
    const ArrivalSpec& spec,
    const std::vector<runtime::ExperimentSpec>& workload, double duration,
    std::uint64_t seed);

}  // namespace tictac::sched
