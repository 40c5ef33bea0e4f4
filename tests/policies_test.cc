#include <gtest/gtest.h>

#include <algorithm>
#include <string>
#include <vector>

#include "core/policy_registry.h"
#include "core/tic.h"
#include "models/builder.h"
#include "models/zoo.h"

namespace tictac::core {
namespace {

Graph SizedRecvGraph() {
  Graph g;
  g.AddRecv("small", 100, 0);
  g.AddRecv("large", 10000, 1);
  g.AddRecv("medium", 1000, 2);
  const OpId sink = g.AddCompute("sink", 1.0);
  for (OpId r : g.RecvOps()) g.AddEdge(r, sink);
  return g;
}

// The schedule the policy for `spec` computes on `g`.
Schedule Compute(const std::string& spec, const Graph& g) {
  const PropertyIndex index(g);
  const AnalyticalTimeOracle oracle{PlatformModel{}};
  return PolicyRegistry::Global().Create(spec)->Compute(index, oracle);
}

TEST(Policies, FixedRandomIsAPermutationAndSeedStable) {
  const Graph g = SizedRecvGraph();
  const Schedule a = Compute("random:42", g);
  const Schedule b = Compute("random:42", g);
  const Schedule c = Compute("random:43", g);
  EXPECT_TRUE(a.CoversAllRecvs(g));
  EXPECT_EQ(a.RecvOrder(g), b.RecvOrder(g));
  // Different seed should (for 3! = 6 orders, usually) differ; we only
  // require it to stay a valid permutation.
  EXPECT_TRUE(c.CoversAllRecvs(g));
  std::vector<int> priorities;
  for (OpId r : g.RecvOps()) priorities.push_back(a.priority(r));
  std::sort(priorities.begin(), priorities.end());
  EXPECT_EQ(priorities, (std::vector<int>{0, 1, 2}));
}

TEST(Policies, SmallestFirstOrdersByBytes) {
  const Graph g = SizedRecvGraph();
  const Schedule s = Compute("smallest-first", g);
  EXPECT_EQ(s.RecvOrder(g), (std::vector<OpId>{0, 2, 1}));
}

TEST(Policies, LargestFirstOrdersByBytesDescending) {
  const Graph g = SizedRecvGraph();
  const Schedule s = Compute("largest-first", g);
  EXPECT_EQ(s.RecvOrder(g), (std::vector<OpId>{1, 2, 0}));
}

TEST(Policies, ByteOrderTiesAreStableById) {
  Graph g;
  g.AddRecv("a", 100, 0);
  g.AddRecv("b", 100, 1);
  const OpId sink = g.AddCompute("sink", 1.0);
  g.AddEdge(0, sink);
  g.AddEdge(1, sink);
  EXPECT_EQ(Compute("smallest-first", g).RecvOrder(g),
            (std::vector<OpId>{0, 1}));
}

TEST(Policies, ReverseOrderInvertsTic) {
  const auto& info = models::FindModel("Inception v1");
  const Graph g = models::BuildWorkerGraph(info, {});
  const Schedule tic = Tic(g);
  const Schedule reversed = Compute("reverse:tic", g);
  auto forward = tic.RecvOrder(g);
  auto backward = reversed.RecvOrder(g);
  std::reverse(backward.begin(), backward.end());
  EXPECT_EQ(forward, backward);
  EXPECT_TRUE(reversed.CoversAllRecvs(g));
}

TEST(Policies, ReverseOfReverseIsIdentityOrder) {
  const Graph g = SizedRecvGraph();
  EXPECT_EQ(Compute("smallest-first", g).RecvOrder(g),
            Compute("reverse:reverse:smallest-first", g).RecvOrder(g));
}

}  // namespace
}  // namespace tictac::core
