#include "sim/flow.h"

#include <algorithm>
#include <cmath>
#include <stdexcept>
#include <string>

#include "util/parse.h"

namespace tictac::sim {

bool FlowNetwork::HasFlows() const {
  for (const std::vector<int>& links : resource_links) {
    if (!links.empty()) return true;
  }
  return false;
}

void FlowNetwork::Validate(int num_resources) const {
  if (resource_links.size() > static_cast<std::size_t>(num_resources)) {
    throw std::invalid_argument(
        "FlowNetwork: resource_links covers " +
        std::to_string(resource_links.size()) +
        " resources but the simulation has only " +
        std::to_string(num_resources));
  }
  if (resource_nominal_bps.size() < resource_links.size()) {
    throw std::invalid_argument(
        "FlowNetwork: resource_nominal_bps (" +
        std::to_string(resource_nominal_bps.size()) +
        " entries) must cover every resource in resource_links (" +
        std::to_string(resource_links.size()) + ")");
  }
  for (std::size_t l = 0; l < links.size(); ++l) {
    const double c = links[l].capacity_bps;
    if (!(c > 0.0) || !std::isfinite(c)) {
      throw std::invalid_argument(
          "FlowNetwork: link " + std::to_string(l) +
          " capacity must be positive and finite, got " +
          util::FormatDouble(c));
    }
  }
  for (std::size_t r = 0; r < resource_links.size(); ++r) {
    const std::vector<int>& listed = resource_links[r];
    if (listed.empty()) continue;
    for (auto it = listed.begin(); it != listed.end(); ++it) {
      const int l = *it;
      if (l < 0 || static_cast<std::size_t>(l) >= links.size()) {
        throw std::invalid_argument(
            "FlowNetwork: resource " + std::to_string(r) +
            " references link " + std::to_string(l) + " of " +
            std::to_string(links.size()));
      }
      // A repeat would count the flow twice in the link's water-fill.
      if (std::find(listed.begin(), it, l) != it) {
        throw std::invalid_argument("FlowNetwork: resource " +
                                    std::to_string(r) + " lists link " +
                                    std::to_string(l) + " twice");
      }
    }
    const double nominal = resource_nominal_bps[r];
    if (!(nominal > 0.0) || !std::isfinite(nominal)) {
      throw std::invalid_argument(
          "FlowNetwork: resource " + std::to_string(r) +
          " needs a positive finite nominal rate, got " +
          util::FormatDouble(nominal));
    }
  }
}

}  // namespace tictac::sim
