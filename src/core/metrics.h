// Scheduling-efficiency metrics (Section 3.2).
//
//   UMakespan (Eq. 1) — serial execution: sum of all op times.
//   LMakespan (Eq. 2) — perfect overlap: the busiest resource's total.
//   E (Eq. 3)         — (U - m) / (U - L); 1 = perfect, 0 = worst.
//   S (Eq. 4)         — (U - L) / L; the best-over-worst speedup headroom.
//
// Both bounds ignore DAG dependencies, so E can exceed [0,1] slightly in
// pathological measurements; callers that need a bounded value clamp.
#pragma once

#include <vector>

#include "core/graph.h"
#include "core/time_oracle.h"

namespace tictac::core {

struct MakespanBounds {
  double upper = 0.0;  // Eq. 1
  double lower = 0.0;  // Eq. 2
};

// Computes both bounds. Resource grouping for the lower bound uses each
// op's `resource` tag; untagged ops (-1) default to resource 0 for
// computation kinds and resource 1 for communication kinds, matching the
// two-resource device model of Figure 1.
MakespanBounds ComputeBounds(const Graph& graph, const TimeOracle& oracle);

// Eq. 3. Returns 1 when upper == lower (no scheduling headroom).
double Efficiency(const MakespanBounds& bounds, double makespan);

// Eq. 4. Returns 0 when lower == 0.
double Speedup(const MakespanBounds& bounds);

// --- multi-job fairness / interference (DESIGN.md §6) ----------------------

// Jain's fairness index over per-job resource shares:
//   J = (Σ x)² / (n · Σ x²)
// 1 = perfectly fair, 1/n = one job takes everything; never above 1,
// even where the rounded quotient would be. Shares must be >= 0 (throws
// std::invalid_argument otherwise); an empty or all-zero sample carries
// no contention information and returns 1.
double JainFairness(const std::vector<double>& shares);

// Per-job slowdown of a shared-cluster run against the same jobs run in
// isolation, plus the aggregate fairness of the contention outcome.
struct InterferenceStats {
  // shared_time / isolated_time per job; > 1 = the job lost time to
  // contention, 1 = unaffected.
  std::vector<double> slowdown;
  // isolated_time / shared_time per job (the "normalized progress" of
  // co-scheduling literature); <= 1 in the common case.
  std::vector<double> normalized_progress;
  double mean_slowdown = 1.0;
  double max_slowdown = 1.0;
  // Jain index over normalized progress: 1 = contention hit every job
  // equally, lower = some jobs absorbed most of the interference.
  double fairness = 1.0;
};

// `shared` and `isolated` hold one per-job iteration time each (same
// order). Sizes must match and be >= 1, and every time must be > 0;
// throws std::invalid_argument naming the offending entry otherwise.
InterferenceStats ComputeInterference(const std::vector<double>& shared,
                                      const std::vector<double>& isolated);

}  // namespace tictac::core
