#include "sched/placement.h"

#include <stdexcept>
#include <string>

namespace tictac::sched {

int PlacementPolicy::Place(const runtime::ExperimentSpec& job,
                           const std::vector<FabricLoad>& loads,
                           std::size_t decision_seq,
                           int max_jobs_per_fabric) const {
  const PlacementQuery query{job, loads, decision_seq, max_jobs_per_fabric};
  int best = -1;
  double best_score = 0.0;
  for (std::size_t f = 0; f < loads.size(); ++f) {
    if (loads[f].down || loads[f].active_jobs >= max_jobs_per_fabric) {
      continue;
    }
    const double s = score(query, f);
    if (best < 0 || s < best_score) {
      best = static_cast<int>(f);
      best_score = s;
    }
  }
  return best;
}

const PlacementPolicy& FindPlacementPolicy(std::string_view name) {
  std::string known;
  for (const PlacementPolicy& policy : kPlacementPolicies) {
    if (policy.name == name) return policy;
    known += (known.empty() ? "" : ", ") + std::string(policy.name);
  }
  throw std::invalid_argument("placement: unknown policy '" +
                              std::string(name) + "' — registered: " + known);
}

}  // namespace tictac::sched
