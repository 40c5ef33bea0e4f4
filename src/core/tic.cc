#include "core/tic.h"

#include <algorithm>
#include <cmath>
#include <vector>

#include "core/incremental_properties.h"

namespace tictac::core {

Schedule Tic(const Graph& graph) { return Tic(PropertyIndex(graph)); }

Schedule Tic(const PropertyIndex& index) {
  const Graph& graph = index.graph();
  const auto& recvs = index.recvs();

  // Every recv outstanding: the incremental state's initial properties
  // are the full pass's, in O(V + Σ|class|) instead of O(Σ|dep(op)|).
  const GeneralTimeOracle oracle;
  const std::vector<RecvProperties> props =
      index.recvs_are_roots()
          ? IncrementalProperties(index, oracle).props()
          : index.UpdateProperties(oracle,
                                   std::vector<bool>(recvs.size(), true));

  // Rank-compress M+ so priority numbers are small consecutive integers;
  // infinite M+ lands after every finite value.
  std::vector<double> finite;
  finite.reserve(props.size());
  for (const RecvProperties& p : props) {
    if (std::isfinite(p.Mplus)) finite.push_back(p.Mplus);
  }
  std::sort(finite.begin(), finite.end());
  finite.erase(std::unique(finite.begin(), finite.end()), finite.end());

  Schedule schedule(graph.size());
  for (std::size_t i = 0; i < recvs.size(); ++i) {
    int rank;
    if (std::isfinite(props[i].Mplus)) {
      rank = static_cast<int>(
          std::lower_bound(finite.begin(), finite.end(), props[i].Mplus) -
          finite.begin());
    } else {
      rank = static_cast<int>(finite.size());
    }
    schedule.SetPriority(recvs[i], rank);
  }
  return schedule;
}

}  // namespace tictac::core
