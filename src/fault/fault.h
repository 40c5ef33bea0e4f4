// Fault-injection specs for the cluster-scheduler service (DESIGN.md §8).
//
// The paper's TIC/TAC schedules assume a healthy cluster; production PS
// fabrics lose workers, see NICs flap, and grow stragglers mid-iteration.
// A FaultSpec is a deterministic timeline of such events against the
// service's shared PS fabrics, in a compact text grammar that round-trips
// exactly (Parse(ToString()) == *this), one event per `;`-separated
// clause:
//
//   straggler:worker=2:factor=3:at=1.0:for=2.0   worker slot 2 computes
//                                                3x slower over [1, 3)
//   slowlink:nic=0:scale=0.25:at=1.0:for=2.0     PS 0's NIC serves at a
//                                                quarter of its bandwidth
//   crash:worker=2:at=5.0                        the job owning worker
//                                                slot 2 loses its fabric
//                                                seat (permanent)
//   crash:fabric=1:at=5.0                        fabric 1 fails for good;
//                                                residents re-queue
//   flap:nic=0:period=0.5:at=1.0:for=3.0         PS 0's NIC goes down for
//                                                the first half of every
//                                                period over [1, 4)
//   trace:faults.csv                             one event clause per CSV
//                                                line (CRLF / blank / '#'
//                                                comment lines tolerated,
//                                                line-numbered errors)
//
// Every event takes an optional `fabric=K` (default 0) naming the shared
// fabric it strikes; `for=` omitted means the perturbation never lifts.
// Each kind and key is one row of kFaultGrammar, which util/clause.h
// reads, prints and bounds; crash is two rows (a worker or a whole
// fabric), and only a flap's finite for= and 4096-cycle cap, which tie
// two fields together, are checked by hand.
//
// Worker/NIC indices are fabric-local: worker slot w is the w-th worker
// of the fabric's current lowering (events aimed past the current worker
// count strike air — deterministic, and exactly what a dead slot does),
// nic=s is parameter server s of the stream's shared ps= fleet.
//
// Determinism contract: fault timelines carry their own times, and the
// only randomness the fault layer ever draws (recovery-backoff jitter)
// comes from util::Rng::Stream — an independent split of the service
// seed — so enabling faults NEVER perturbs the seeded arrival sequence
// or the per-iteration sim seeds (pinned in tests/fault_test.cc).
#pragma once

#include <limits>
#include <string>
#include <string_view>
#include <vector>

#include "util/clause.h"

namespace tictac::fault {

// One scheduled fault. Fields without meaning for a kind keep their
// defaults (ToString omits them; Parse rejects them).
struct FaultEvent {
  enum class Kind {
    kStraggler,    // compute slowdown on one worker slot
    kSlowLink,     // bandwidth scale on one PS NIC
    kCrashWorker,  // permanent loss of one worker slot's job seat
    kCrashFabric,  // permanent loss of a whole fabric
    kFlap,         // periodic NIC down intervals
  };

  Kind kind = Kind::kStraggler;
  int fabric = 0;    // which shared fabric the event strikes
  int worker = -1;   // straggler / crash:worker target slot
  int nic = -1;      // slowlink / flap target PS index
  double factor = 1.0;  // straggler: compute runs `factor` times slower
  double scale = 1.0;   // slowlink: bandwidth multiplier in (0, 1]
  double at = 0.0;      // cluster time the event takes effect
  // Perturbation length; infinity (the default, omitted in text) = never
  // lifts. Crashes are permanent by definition and reject a for=.
  double duration = std::numeric_limits<double>::infinity();
  double period = 0.0;  // flap: full down/up cycle length

  // Canonical clause, e.g. "straggler:worker=2:factor=3:at=1:for=2".
  std::string ToString() const;

  friend bool operator==(const FaultEvent&, const FaultEvent&) = default;
};

// The clause grammar's kind and field rows, for Parse, ToString and
// Validate and for tests that walk every kind and key.
extern const util::ClauseGrammar<FaultEvent> kFaultGrammar;

// A whole fault timeline: inline events, or a trace file holding one
// event clause per line. Default-constructed = no faults; every consumer
// treats an empty spec as the fault-free path, bit for bit.
struct FaultSpec {
  std::vector<FaultEvent> events;
  std::string trace_path;  // non-empty = trace form (events then empty)

  bool empty() const { return events.empty() && trace_path.empty(); }

  // Canonical text form: clauses joined by ';', or "trace:<path>", or ""
  // when empty. Parse(ToString()) == *this for non-empty specs.
  std::string ToString() const;

  // Parses "<clause>[;<clause>...]" or "trace:<path>". Throws
  // std::invalid_argument (naming the bad token) on malformed input; the
  // parsed spec is Validate()d before being returned.
  static FaultSpec Parse(std::string_view text);

  // Structural bounds: targets >= 0, factor >= 1, scale in (0, 1],
  // finite at >= 0, duration > 0 (or infinite), flap period > 0 with a
  // finite duration covering at most 4096 cycles. Throws
  // std::invalid_argument naming the offending event and field.
  void Validate() const;

  // The concrete timeline: inline events verbatim, or the trace file
  // parsed (same blank/comment/CRLF tolerance and line-numbered errors
  // as the arrival trace reader), stably sorted by `at`. Throws
  // std::runtime_error when the trace file cannot be read.
  std::vector<FaultEvent> Materialize() const;

  friend bool operator==(const FaultSpec&, const FaultSpec&) = default;
};

}  // namespace tictac::fault
