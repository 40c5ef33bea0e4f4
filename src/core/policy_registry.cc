#include "core/policy_registry.h"

#include <algorithm>
#include <optional>
#include <stdexcept>

#include "core/tac.h"
#include "core/tic.h"
#include "util/parse.h"
#include "util/rng.h"

namespace tictac::core {

// One policy: its spec name, whether it takes a ":arg", whether its order
// depends on the oracle, and the order. Only the random row reads `seed`.
// The reverse row has no `compute`: its argument is another spec, whose
// order it reverses.
struct PolicyRow {
  std::string_view name;
  bool takes_arg;
  bool needs_oracle;
  Schedule (*compute)(const PropertyIndex& index, const TimeOracle& oracle,
                      std::uint64_t seed);
};

namespace {

constexpr std::uint64_t kDefaultSeed = 99;
constexpr std::string_view kReversedByDefault = "tic";

// Priorities 0, 1, 2, ... to the recvs in `order`.
Schedule Ranked(const Graph& graph, const std::vector<OpId>& order) {
  Schedule schedule(graph.size());
  for (std::size_t i = 0; i < order.size(); ++i) {
    schedule.SetPriority(order[i], static_cast<int>(i));
  }
  return schedule;
}

// Transfers by byte size, ties in op id order.
template <bool kAscending>
Schedule ByBytes(const PropertyIndex& index, const TimeOracle&,
                 std::uint64_t) {
  const Graph& graph = index.graph();
  std::vector<OpId> recvs = graph.RecvOps();
  std::stable_sort(recvs.begin(), recvs.end(), [&](OpId a, OpId b) {
    const auto ba = graph.op(a).bytes;
    const auto bb = graph.op(b).bytes;
    return kAscending ? ba < bb : ba > bb;
  });
  return Ranked(graph, recvs);
}

// "reverse[:spec]": the exact reverse of another spec's order ("tic" by
// default); nests, e.g. "reverse:random:7". Applied to TIC it
// approximates the most blocking feasible order (the A3 ablation).
constexpr PolicyRow kReverse = {"reverse", true, false, nullptr};

constexpr PolicyRow kPolicies[] = {
    // No priorities at all — TensorFlow's arbitrary order. The empty
    // Schedule reads downstream as "unscheduled": no gates, random
    // ready-queue picks.
    {"baseline", false, false,
     [](const PropertyIndex&, const TimeOracle&, std::uint64_t) {
       return Schedule();
     }},
    // Algorithm 2 (core/tic.h): timing-independent by construction (Eq. 5).
    {"tic", false, false,
     [](const PropertyIndex& index, const TimeOracle&, std::uint64_t) {
       return Tic(index);
     }},
    // Algorithm 3 (core/tac.h): timing-aware greedy overlap maximization.
    {"tac", false, true,
     [](const PropertyIndex& index, const TimeOracle& oracle, std::uint64_t) {
       return Tac(index, oracle);
     }},
    // "random[:seed]" (seed 99 by default): one random permutation of the
    // recvs, fixed across iterations. Separates "any enforced order"
    // (which already kills stragglers, §6.3) from "a good order".
    {"random", true, false,
     [](const PropertyIndex& index, const TimeOracle&, std::uint64_t seed) {
       std::vector<OpId> recvs = index.graph().RecvOps();
       util::Rng rng(seed);
       rng.Shuffle(recvs);
       return Ranked(index.graph(), recvs);
     }},
    // Ascending transfer bytes (the shortest-job-first straw man).
    {"smallest-first", false, false, ByBytes<true>},
    {"largest-first", false, false, ByBytes<false>},
    kReverse,
};

const PolicyRow& FindRow(std::string_view name) {
  for (const PolicyRow& row : kPolicies) {
    if (row.name == name) return row;
  }
  std::string available;
  for (const PolicyRow& row : kPolicies) {
    available += (available.empty() ? "" : ", ") + std::string(row.name);
  }
  throw std::invalid_argument("unknown scheduling policy \"" +
                              std::string(name) +
                              "\"; available: " + available);
}

}  // namespace

Schedule SchedulingPolicy::Compute(const PropertyIndex& index,
                                   const TimeOracle& oracle) const {
  Schedule schedule = row_->compute(index, oracle, seed_);
  // Two reversals are as many as ever matter. A reversal reads its input
  // S only through RecvOrder(S) and numbers that order backwards with
  // distinct ranks, so RecvOrder(reverse(S)) is RecvOrder(S) backwards
  // and RecvOrder(reverse²(S)) == RecvOrder(S). Hence reverse³(S) ==
  // reverse(S) bit for bit: an odd count acts as one reversal, a nonzero
  // even count as two.
  const std::size_t applied = reversals_ == 0 ? 0 : 2 - reversals_ % 2;
  for (std::size_t i = 0; i < applied; ++i) {
    std::vector<OpId> order = schedule.RecvOrder(index.graph());
    std::reverse(order.begin(), order.end());
    schedule = Ranked(index.graph(), order);
  }
  return schedule;
}

std::string SchedulingPolicy::name() const {
  std::string name;
  for (std::size_t i = 0; i < reversals_; ++i) {
    name += kReverse.name;
    name += ':';
  }
  name += row_->name;
  if (row_->takes_arg) name.append(":").append(std::to_string(seed_));
  return name;
}

bool SchedulingPolicy::RequiresOracle() const { return row_->needs_oracle; }

const PolicyRegistry& PolicyRegistry::Global() {
  static const PolicyRegistry registry;
  return registry;
}

std::unique_ptr<SchedulingPolicy> PolicyRegistry::Create(
    std::string_view spec) const {
  // Each "reverse:" prefix is counted and skipped in place, so a spec of
  // any depth parses in one pass without copying its tail.
  std::size_t reversals = 0;
  for (;;) {
    const std::size_t colon = spec.find(':');
    const PolicyRow& row = FindRow(spec.substr(0, colon));
    const std::string_view arg =
        colon == spec.npos ? "" : spec.substr(colon + 1);
    if (row.compute == nullptr) {
      ++reversals;
      spec = arg.empty() ? kReversedByDefault : arg;
      continue;
    }
    const std::optional<std::uint64_t> seed =
        arg.empty() ? kDefaultSeed : util::ParseUnsigned(arg);
    if (!seed || (!row.takes_arg && !arg.empty())) {
      throw std::invalid_argument(
          "policy \"" + std::string(row.name) + "\" " +
          (row.takes_arg ? "expects a non-negative integer seed"
                         : "takes no argument") +
          ", got \"" + std::string(arg) + "\"");
    }
    return std::unique_ptr<SchedulingPolicy>(
        new SchedulingPolicy(row, *seed, reversals));
  }
}

std::vector<std::string> PolicyRegistry::List() const {
  std::vector<std::string> names;
  for (const PolicyRow& row : kPolicies) names.emplace_back(row.name);
  return names;
}

}  // namespace tictac::core
