#include "core/tac.h"

#include <algorithm>
#include <cassert>
#include <vector>

#include "core/incremental_properties.h"

namespace tictac::core {

bool TacBefore(const RecvProperties& a, const RecvProperties& b) {
  // Eq. 6: A ≺ B  <=>  min{P_B, M_A} < min{P_A, M_B}.
  const double lhs = std::min(b.P, a.M);
  const double rhs = std::min(a.P, b.M);
  if (lhs != rhs) return lhs < rhs;
  // Case 2 tie-break: the transfer whose cheapest jointly-dependent
  // computation needs less total communication goes first.
  if (a.Mplus != b.Mplus) return a.Mplus < b.Mplus;
  return a.op < b.op;
}

Schedule Tac(const Graph& graph, const TimeOracle& oracle) {
  return Tac(PropertyIndex(graph), oracle);
}

namespace {

// Argmin over outstanding recvs w.r.t. TacBefore. Shared by the
// incremental and the reference path: TacBefore is not transitive, so
// the result depends on scan order, and the two paths are bit-identical
// only because they run the *same* scan.
template <typename IsOutstanding>
int BestOutstanding(const std::vector<RecvProperties>& props,
                    const IsOutstanding& outstanding) {
  int best = -1;
  for (std::size_t i = 0; i < props.size(); ++i) {
    if (!outstanding(i)) continue;
    if (best < 0 ||
        TacBefore(props[i], props[static_cast<std::size_t>(best)])) {
      best = static_cast<int>(i);
    }
  }
  return best;
}

}  // namespace

Schedule Tac(const PropertyIndex& index, const TimeOracle& oracle) {
  // The incremental state assumes recvs are communication roots (every
  // producer in this repo builds them that way) and recv times that are
  // finite and non-negative; for exotic graphs with recv→recv ancestry or
  // oracles outside that range, stay correct via the reference path.
  if (!IncrementalProperties::Supports(index, oracle)) {
    return TacFullRecompute(index, oracle);
  }

  const Graph& graph = index.graph();
  const auto& recvs = index.recvs();

  Schedule schedule(graph.size());
  IncrementalProperties state(index, oracle);
  int count = 0;
  while (state.remaining() > 0) {
    // Block-pruned fold; bit-identical to BestOutstanding over props()
    // (see IncrementalProperties::BestRecv), sub-O(R) per round when
    // whole blocks provably cannot beat the running best.
    const int best = state.BestRecv();
    assert(best >= 0);
    schedule.SetPriority(recvs[static_cast<std::size_t>(best)], count++);
    state.CompleteRecv(static_cast<std::size_t>(best));
  }
  return schedule;
}

Schedule TacFullRecompute(const PropertyIndex& index,
                          const TimeOracle& oracle) {
  const Graph& graph = index.graph();
  const auto& recvs = index.recvs();

  Schedule schedule(graph.size());
  std::vector<bool> outstanding(recvs.size(), true);
  std::size_t remaining = recvs.size();
  int count = 0;
  while (remaining > 0) {
    const std::vector<RecvProperties> props =
        index.UpdateProperties(oracle, outstanding);
    const int best = BestOutstanding(
        props, [&](std::size_t i) { return outstanding[i]; });
    assert(best >= 0);
    schedule.SetPriority(recvs[static_cast<std::size_t>(best)], count++);
    outstanding[static_cast<std::size_t>(best)] = false;
    --remaining;
  }
  return schedule;
}

}  // namespace tictac::core
