// Transfer-ordering policies, selected by spec string: "name" or
// "name:arg". The paper's heuristics (TIC, TAC, baseline) and the repo's
// ablation orders each map a prebuilt communication-dependency index and
// a time oracle to a priority Schedule, and each is one row of the
// constant table in policy_registry.cc, which documents its spec.
#pragma once

#include <cstddef>
#include <cstdint>
#include <memory>
#include <string>
#include <string_view>
#include <vector>

#include "core/properties.h"
#include "core/schedule.h"
#include "core/time_oracle.h"

namespace tictac::core {

struct PolicyRow;

// A parsed spec: a table row, the random seed, and the number of
// "reverse:" prefixes in front of the row's name.
class SchedulingPolicy final {
 public:
  // Produces the priority schedule for index.graph(). `oracle` predicts
  // per-op execution times; timing-independent policies ignore it.
  Schedule Compute(const PropertyIndex& index,
                   const TimeOracle& oracle) const;

  // Canonical spec of this policy: PolicyRegistry::Global().Create(name())
  // reconstructs an equivalent one (e.g. "tac", "random:99",
  // "reverse:tic").
  std::string name() const;

  // True if Compute's result depends on the oracle's times. Callers use
  // this to decide whether oracle quality (noise, calibration) matters.
  bool RequiresOracle() const;

 private:
  friend class PolicyRegistry;
  SchedulingPolicy(const PolicyRow& row, std::uint64_t seed,
                   std::size_t reversals)
      : row_(&row), seed_(seed), reversals_(reversals) {}

  const PolicyRow* row_;
  std::uint64_t seed_;
  std::size_t reversals_;
};

class PolicyRegistry {
 public:
  static const PolicyRegistry& Global();

  // Creates the policy for a spec, in time linear in the spec's length.
  // Throws std::invalid_argument for an unknown name, listing what is
  // available, or for a bad argument.
  std::unique_ptr<SchedulingPolicy> Create(std::string_view spec) const;

  // Policy names, in table order: baseline first.
  std::vector<std::string> List() const;
};

}  // namespace tictac::core
