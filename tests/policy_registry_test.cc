#include "core/policy_registry.h"

#include <gtest/gtest.h>

#include <algorithm>
#include <stdexcept>
#include <string>

#include "core/tac.h"
#include "core/tic.h"
#include "models/builder.h"
#include "models/zoo.h"

namespace tictac::core {
namespace {

// Small model-zoo graph shared by the parameterized tests.
const Graph& TestGraph() {
  static const Graph* graph = new Graph(models::BuildWorkerGraph(
      models::FindModel("AlexNet v2"), {.training = false}));
  return *graph;
}

const PropertyIndex& TestIndex() {
  static const PropertyIndex* index = new PropertyIndex(TestGraph());
  return *index;
}

TEST(PolicyRegistry, ListsBuiltinsWithBaselineFirst) {
  const auto names = PolicyRegistry::Global().List();
  ASSERT_FALSE(names.empty());
  EXPECT_EQ(names.front(), "baseline");
  for (const char* expected : {"baseline", "tic", "tac", "random",
                               "smallest-first", "largest-first", "reverse"}) {
    EXPECT_EQ(std::count(names.begin(), names.end(), expected), 1)
        << expected;
  }
}

TEST(PolicyRegistry, UnknownNameReportsAvailablePolicies) {
  try {
    PolicyRegistry::Global().Create("no-such-policy");
    FAIL() << "expected std::invalid_argument";
  } catch (const std::invalid_argument& e) {
    const std::string message = e.what();
    EXPECT_NE(message.find("no-such-policy"), std::string::npos) << message;
    for (const auto& name : PolicyRegistry::Global().List()) {
      EXPECT_NE(message.find(name), std::string::npos) << message;
    }
  }
}

TEST(PolicyRegistry, NoArgPoliciesRejectArguments) {
  EXPECT_THROW(PolicyRegistry::Global().Create("tic:5"),
               std::invalid_argument);
  EXPECT_THROW(PolicyRegistry::Global().Create("baseline:x"),
               std::invalid_argument);
}

// The message of the std::invalid_argument that Create(spec) throws.
std::string CreateError(const std::string& spec) {
  try {
    PolicyRegistry::Global().Create(spec);
  } catch (const std::invalid_argument& e) {
    return e.what();
  }
  ADD_FAILURE() << "expected std::invalid_argument for " << spec;
  return "";
}

TEST(PolicyRegistry, BadSpecsNameTheirFaultExactly) {
  EXPECT_EQ(CreateError("tic:5"),
            "policy \"tic\" takes no argument, got \"5\"");
  EXPECT_EQ(CreateError("reverse:tic:5"),
            "policy \"tic\" takes no argument, got \"5\"");
  EXPECT_EQ(CreateError("random:-1"),
            "policy \"random\" expects a non-negative integer seed, got "
            "\"-1\"");
  EXPECT_EQ(CreateError("random: 7"),
            "policy \"random\" expects a non-negative integer seed, got "
            "\" 7\"");
  // A trailing ':' is an empty argument, not another spelling of the
  // policy's default.
  EXPECT_EQ(CreateError("random:"),
            "policy \"random\" has an empty argument; drop the trailing ':'");
  EXPECT_EQ(CreateError("tic:"),
            "policy \"tic\" has an empty argument; drop the trailing ':'");
  EXPECT_EQ(CreateError("reverse:"),
            "policy \"reverse\" has an empty argument; drop the trailing "
            "':'");
  EXPECT_EQ(CreateError("reverse:random:"),
            "policy \"random\" has an empty argument; drop the trailing ':'");
  EXPECT_EQ(CreateError("no-such-policy"),
            "unknown scheduling policy \"no-such-policy\"; available: "
            "baseline, tic, tac, random, smallest-first, largest-first, "
            "reverse");
}

TEST(PolicyRegistry, RandomSeedArgumentIsHonored) {
  const auto& registry = PolicyRegistry::Global();
  const AnalyticalTimeOracle oracle{PlatformModel{}};
  const Schedule a = registry.Create("random:7")->Compute(TestIndex(), oracle);
  const Schedule b = registry.Create("random:7")->Compute(TestIndex(), oracle);
  EXPECT_EQ(a.RecvOrder(TestGraph()), b.RecvOrder(TestGraph()));
  EXPECT_EQ(registry.Create("random:7")->name(), "random:7");
  EXPECT_EQ(registry.Create("random")->name(), "random:99");
  EXPECT_THROW(registry.Create("random:notanumber"), std::invalid_argument);
  // std::stoull alone would wrap "-1" to 2^64-1; the spec must reject it.
  EXPECT_THROW(registry.Create("random:-1"), std::invalid_argument);
  EXPECT_THROW(registry.Create("random: 7"), std::invalid_argument);
}

TEST(PolicyRegistry, ReverseCombinatorNestsAndInverts) {
  const auto& registry = PolicyRegistry::Global();
  const AnalyticalTimeOracle oracle{PlatformModel{}};
  const auto reverse_tac = registry.Create("reverse:tac");
  EXPECT_EQ(reverse_tac->name(), "reverse:tac");
  EXPECT_TRUE(reverse_tac->RequiresOracle());

  auto forward = Tac(TestIndex(), oracle).RecvOrder(TestGraph());
  auto backward = reverse_tac->Compute(TestIndex(), oracle)
                      .RecvOrder(TestGraph());
  std::reverse(backward.begin(), backward.end());
  EXPECT_EQ(forward, backward);

  // Default inner is TIC; double reversal restores the TIC order.
  EXPECT_EQ(registry.Create("reverse")->name(), "reverse:tic");
  const auto twice = registry.Create("reverse:reverse:tic");
  EXPECT_EQ(twice->Compute(TestIndex(), oracle).RecvOrder(TestGraph()),
            Tic(TestIndex()).RecvOrder(TestGraph()));
  EXPECT_FALSE(twice->RequiresOracle());
}

// A reverse nest parses in one linear pass, and a third reversal equals
// the first: 200k levels build and compute reverse:reverse:tic's
// schedule bit for bit.
TEST(PolicyRegistry, DeepReverseNestBuildsAndMatchesTwoLevels) {
  constexpr std::size_t kLevels = 200000;
  std::string spec;
  for (std::size_t i = 0; i < kLevels; ++i) spec += "reverse:";
  spec += "tic";
  const auto deep = PolicyRegistry::Global().Create(spec);
  EXPECT_EQ(deep->name(), spec);
  EXPECT_FALSE(deep->RequiresOracle());
  const AnalyticalTimeOracle oracle{PlatformModel{}};
  const Schedule got = deep->Compute(TestIndex(), oracle);
  const Schedule want = PolicyRegistry::Global()
                            .Create("reverse:reverse:tic")
                            ->Compute(TestIndex(), oracle);
  ASSERT_EQ(got.size(), want.size());
  for (OpId op = 0; op < static_cast<OpId>(TestGraph().size()); ++op) {
    EXPECT_EQ(got.priority(op), want.priority(op)) << op;
  }
  // An odd depth acts as one reversal.
  const Schedule odd = PolicyRegistry::Global()
                           .Create("reverse:" + spec)
                           ->Compute(TestIndex(), oracle);
  EXPECT_EQ(odd.RecvOrder(TestGraph()),
            PolicyRegistry::Global()
                .Create("reverse:tic")
                ->Compute(TestIndex(), oracle)
                .RecvOrder(TestGraph()));
}

TEST(PolicyRegistry, TicAndTacRowsMatchTheirAlgorithms) {
  const AnalyticalTimeOracle oracle{PlatformModel{}};
  EXPECT_EQ(PolicyRegistry::Global()
                .Create("tic")
                ->Compute(TestIndex(), oracle)
                .RecvOrder(TestGraph()),
            Tic(TestIndex()).RecvOrder(TestGraph()));
  EXPECT_EQ(PolicyRegistry::Global()
                .Create("tac")
                ->Compute(TestIndex(), oracle)
                .RecvOrder(TestGraph()),
            Tac(TestIndex(), oracle).RecvOrder(TestGraph()));
}

class AllPoliciesTest : public ::testing::TestWithParam<std::string> {};

TEST_P(AllPoliciesTest, CreatesComputesAndIsDeterministic) {
  const auto& registry = PolicyRegistry::Global();
  const std::string& name = GetParam();
  const AnalyticalTimeOracle oracle{PlatformModel{}};

  const auto policy = registry.Create(name);
  ASSERT_NE(policy, nullptr);
  EXPECT_FALSE(policy->name().empty());
  // name() is a canonical spec: creating from it reproduces the policy.
  const auto clone = registry.Create(policy->name());
  EXPECT_EQ(clone->name(), policy->name());
  EXPECT_EQ(clone->RequiresOracle(), policy->RequiresOracle());

  const Schedule first = policy->Compute(TestIndex(), oracle);
  const Schedule second = registry.Create(name)->Compute(TestIndex(), oracle);
  EXPECT_EQ(first.RecvOrder(TestGraph()), second.RecvOrder(TestGraph()));

  if (name == "baseline") {
    EXPECT_FALSE(first.CoversAllRecvs(TestGraph()));
    EXPECT_EQ(first.size(), 0u);
  } else {
    EXPECT_TRUE(first.CoversAllRecvs(TestGraph())) << name;
    EXPECT_EQ(first.size(), TestGraph().size());
  }
}

INSTANTIATE_TEST_SUITE_P(
    Registry, AllPoliciesTest,
    ::testing::ValuesIn(PolicyRegistry::Global().List()),
    [](const auto& param) {
      std::string name = param.param;
      for (char& c : name) {
        if (!std::isalnum(static_cast<unsigned char>(c))) c = '_';
      }
      return name;
    });

}  // namespace
}  // namespace tictac::core
