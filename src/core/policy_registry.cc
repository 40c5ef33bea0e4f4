#include "core/policy_registry.h"

#include <optional>
#include <stdexcept>
#include <utility>

#include "util/parse.h"

namespace tictac::core {
namespace {

std::uint64_t ParseSeed(const std::string& arg) {
  if (arg.empty()) return FixedRandomOrderPolicy::kDefaultSeed;
  const std::optional<std::uint64_t> seed = util::ParseUnsigned(arg);
  if (!seed) {
    throw std::invalid_argument(
        "policy \"random\" expects a non-negative integer seed, got \"" +
        arg + "\"");
  }
  return *seed;
}

// Adapts a no-argument policy: rejects a non-empty arg with a clear error
// instead of silently ignoring it.
template <typename PolicyT>
PolicyRegistry::Factory NoArg(const char* name) {
  return [name](const std::string& arg) -> std::unique_ptr<SchedulingPolicy> {
    if (!arg.empty()) {
      throw std::invalid_argument("policy \"" + std::string(name) +
                                  "\" takes no argument, got \"" + arg + "\"");
    }
    return std::make_unique<PolicyT>();
  };
}

void RegisterBuiltins(PolicyRegistry& registry) {
  registry.Register("baseline", NoArg<BaselinePolicy>("baseline"));
  registry.Register("tic", NoArg<TicPolicy>("tic"));
  registry.Register("tac", NoArg<TacPolicy>("tac"));
  registry.Register("random", [](const std::string& arg) {
    return std::make_unique<FixedRandomOrderPolicy>(ParseSeed(arg));
  });
  registry.Register("smallest-first",
                    NoArg<SmallestFirstPolicy>("smallest-first"));
  registry.Register("largest-first",
                    NoArg<LargestFirstPolicy>("largest-first"));
  registry.Register("reverse", [](const std::string& arg) {
    const std::string inner = arg.empty() ? "tic" : arg;
    return std::make_unique<ReversePolicy>(
        PolicyRegistry::Global().Create(inner));
  });
}

}  // namespace

PolicyRegistry& PolicyRegistry::Global() {
  static PolicyRegistry* registry = [] {
    auto* r = new PolicyRegistry();
    RegisterBuiltins(*r);
    return r;
  }();
  return *registry;
}

void PolicyRegistry::Register(const std::string& name, Factory factory) {
  if (name.empty() || name.find(':') != std::string::npos) {
    throw std::invalid_argument("invalid policy name \"" + name +
                                "\" (must be non-empty, no ':')");
  }
  if (!factory) {
    throw std::invalid_argument("null factory for policy \"" + name + "\"");
  }
  if (factories_.count(name) != 0) {
    throw std::invalid_argument("duplicate policy name \"" + name + "\"");
  }
  factories_.emplace(name, std::move(factory));
  order_.push_back(name);
}

bool PolicyRegistry::Contains(const std::string& name) const {
  return factories_.count(name) != 0;
}

std::unique_ptr<SchedulingPolicy> PolicyRegistry::Create(
    const std::string& spec) const {
  const std::size_t colon = spec.find(':');
  const std::string name = spec.substr(0, colon);
  const std::string arg =
      colon == std::string::npos ? std::string() : spec.substr(colon + 1);
  const auto it = factories_.find(name);
  if (it == factories_.end()) {
    std::string available;
    for (const std::string& n : order_) {
      if (!available.empty()) available += ", ";
      available += n;
    }
    throw std::invalid_argument("unknown scheduling policy \"" + name +
                                "\"; available: " + available);
  }
  return it->second(arg);
}

}  // namespace tictac::core
