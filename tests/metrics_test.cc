#include "core/metrics.h"

#include <gtest/gtest.h>

#include <stdexcept>
#include <vector>

namespace tictac::core {
namespace {

// Figure 1's two-resource device: one NIC (recvs), one processor.
Graph ToyGraph() {
  Graph g;
  g.AddRecv("recv1", 0);    // id 0
  g.AddRecv("recv2", 0);    // id 1
  g.AddCompute("op1", 0);   // id 2
  g.AddCompute("op2", 0);   // id 3
  g.AddEdge(0, 2);
  g.AddEdge(2, 3);
  g.AddEdge(1, 3);
  return g;
}

MapTimeOracle UnitOracle() {
  return MapTimeOracle({{0, 1.0}, {1, 1.0}, {2, 1.0}, {3, 1.0}});
}

TEST(Metrics, BoundsOnToyGraph) {
  const Graph g = ToyGraph();
  const MapTimeOracle oracle = UnitOracle();
  const MakespanBounds bounds = ComputeBounds(g, oracle);
  // U = serial total (Eq. 1) = 4; L = busiest resource (Eq. 2) = 2.
  EXPECT_DOUBLE_EQ(bounds.upper, 4.0);
  EXPECT_DOUBLE_EQ(bounds.lower, 2.0);
}

TEST(Metrics, EfficiencyEndpoints) {
  const MakespanBounds bounds{4.0, 2.0};
  // Figure 1b's good order achieves makespan 3; 1c's bad order 4.
  EXPECT_DOUBLE_EQ(Efficiency(bounds, 2.0), 1.0);  // m = L: perfect
  EXPECT_DOUBLE_EQ(Efficiency(bounds, 4.0), 0.0);  // m = U: worst
  EXPECT_DOUBLE_EQ(Efficiency(bounds, 3.0), 0.5);
}

TEST(Metrics, EfficiencyWhenNoHeadroom) {
  EXPECT_DOUBLE_EQ(Efficiency({5.0, 5.0}, 5.0), 1.0);
}

TEST(Metrics, SpeedupDefinition) {
  EXPECT_DOUBLE_EQ(Speedup({4.0, 2.0}), 1.0);   // double throughput possible
  EXPECT_DOUBLE_EQ(Speedup({3.0, 3.0}), 0.0);   // no benefit
  EXPECT_DOUBLE_EQ(Speedup({4.0, 0.0}), 0.0);   // degenerate lower bound
}

TEST(Metrics, ExplicitResourceTagsGroupLoad) {
  Graph g;
  Op a;
  a.kind = OpKind::kCompute;
  a.cost = 0;
  a.resource = 7;
  const OpId ida = g.AddOp(a);
  Op b = a;
  const OpId idb = g.AddOp(b);
  Op c = a;
  c.resource = 8;
  const OpId idc = g.AddOp(c);
  MapTimeOracle oracle({{ida, 2.0}, {idb, 3.0}, {idc, 4.0}});
  const MakespanBounds bounds = ComputeBounds(g, oracle);
  EXPECT_DOUBLE_EQ(bounds.upper, 9.0);
  EXPECT_DOUBLE_EQ(bounds.lower, 5.0);  // resource 7 carries 2+3
}

TEST(Metrics, UntaggedOpsSplitByKind) {
  Graph g;
  g.AddRecv("r", 0);
  g.AddSend("s", 0);
  g.AddCompute("c", 0);
  MapTimeOracle oracle({{0, 3.0}, {1, 2.0}, {2, 4.0}});
  const MakespanBounds bounds = ComputeBounds(g, oracle);
  // Communication (3+2) on the default channel vs compute (4).
  EXPECT_DOUBLE_EQ(bounds.lower, 5.0);
  EXPECT_DOUBLE_EQ(bounds.upper, 9.0);
}

TEST(Metrics, JainFairnessEndpoints) {
  EXPECT_DOUBLE_EQ(JainFairness({1.0, 1.0, 1.0}), 1.0);
  EXPECT_DOUBLE_EQ(JainFairness({5.0}), 1.0);
  EXPECT_DOUBLE_EQ(JainFairness({1.0, 0.0}), 0.5);       // max unfair, n = 2
  EXPECT_DOUBLE_EQ(JainFairness({1.0, 0.0, 0.0}),
                   1.0 / 3.0);                           // max unfair, n = 3
  EXPECT_DOUBLE_EQ(JainFairness({}), 1.0);               // no information
  EXPECT_DOUBLE_EQ(JainFairness({0.0, 0.0}), 1.0);       // no information
  EXPECT_NEAR(JainFairness({4.0, 1.0}), 25.0 / 34.0, 1e-12);
  EXPECT_THROW(JainFairness({1.0, -0.5}), std::invalid_argument);
}

// (Σx)² / (n·Σx²) rounds to 1.0000000000000002 on five shares of 0.7;
// the index is clamped to its bound of 1.
TEST(Metrics, JainFairnessNeverExceedsOne) {
  EXPECT_EQ(JainFairness({0.7, 0.7, 0.7, 0.7, 0.7}), 1.0);
  EXPECT_EQ(JainFairness({0.6, 0.6, 0.6}), 0.9999999999999998);
}

TEST(Metrics, JainFairnessIsScaleInvariant) {
  const std::vector<double> shares{0.7, 1.1, 0.9};
  std::vector<double> scaled;
  for (const double s : shares) scaled.push_back(s * 42.0);
  EXPECT_NEAR(JainFairness(shares), JainFairness(scaled), 1e-12);
}

TEST(Metrics, ComputeInterferenceSlowdownsAndFairness) {
  // Job 0 doubled its iteration time under contention, job 1 unaffected.
  const InterferenceStats stats =
      ComputeInterference({2.0, 3.0}, {1.0, 3.0});
  ASSERT_EQ(stats.slowdown.size(), 2u);
  EXPECT_DOUBLE_EQ(stats.slowdown[0], 2.0);
  EXPECT_DOUBLE_EQ(stats.slowdown[1], 1.0);
  EXPECT_DOUBLE_EQ(stats.normalized_progress[0], 0.5);
  EXPECT_DOUBLE_EQ(stats.normalized_progress[1], 1.0);
  EXPECT_DOUBLE_EQ(stats.mean_slowdown, 1.5);
  EXPECT_DOUBLE_EQ(stats.max_slowdown, 2.0);
  // Jain over {0.5, 1.0}: 2.25 / (2 * 1.25) = 0.9.
  EXPECT_DOUBLE_EQ(stats.fairness, 0.9);
}

TEST(Metrics, ComputeInterferenceEqualImpactIsPerfectlyFair) {
  const InterferenceStats stats =
      ComputeInterference({2.0, 6.0}, {1.0, 3.0});  // both slowed 2x
  EXPECT_DOUBLE_EQ(stats.fairness, 1.0);
  EXPECT_DOUBLE_EQ(stats.mean_slowdown, 2.0);
}

TEST(Metrics, ComputeInterferenceRejectsBadInput) {
  EXPECT_THROW(ComputeInterference({}, {}), std::invalid_argument);
  EXPECT_THROW(ComputeInterference({1.0}, {1.0, 2.0}),
               std::invalid_argument);
  EXPECT_THROW(ComputeInterference({1.0}, {0.0}), std::invalid_argument);
  EXPECT_THROW(ComputeInterference({-1.0}, {1.0}), std::invalid_argument);
}

TEST(Metrics, EmptyGraph) {
  Graph g;
  GeneralTimeOracle oracle;
  const MakespanBounds bounds = ComputeBounds(g, oracle);
  EXPECT_DOUBLE_EQ(bounds.upper, 0.0);
  EXPECT_DOUBLE_EQ(bounds.lower, 0.0);
  EXPECT_DOUBLE_EQ(Efficiency(bounds, 0.0), 1.0);
}

}  // namespace
}  // namespace tictac::core
