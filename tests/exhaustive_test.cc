#include "analysis/exhaustive.h"

#include <gtest/gtest.h>

#include "core/tac.h"
#include "core/tic.h"
#include "models/random_dag.h"

namespace tictac {
namespace {

using core::AnalyticalTimeOracle;
using core::Graph;
using core::MapTimeOracle;
using core::OpId;
using core::PlatformModel;
using core::Schedule;
using analysis::EvaluateOrder;
using analysis::EvaluateSchedule;
using analysis::ExhaustiveResult;
using analysis::ExhaustiveSearch;

// Figure 1a with unit times: good order = 3, bad order = 4.
struct Fig1a {
  Graph g;
  OpId r1, r2;
  MapTimeOracle oracle{{}};
  Fig1a() {
    r1 = g.AddRecv("r1", 0, 0);
    r2 = g.AddRecv("r2", 0, 1);
    const OpId o1 = g.AddCompute("op1", 1);
    const OpId o2 = g.AddCompute("op2", 1);
    g.AddEdge(r1, o1);
    g.AddEdge(o1, o2);
    g.AddEdge(r2, o2);
    oracle.Set(r1, 1.0);
    oracle.Set(r2, 1.0);
    oracle.Set(o1, 1.0);
    oracle.Set(o2, 1.0);
  }
};

TEST(EvaluateOrder, Fig1aGoodVsBad) {
  Fig1a f;
  EXPECT_DOUBLE_EQ(EvaluateOrder(f.g, f.oracle, {f.r1, f.r2}), 3.0);
  EXPECT_DOUBLE_EQ(EvaluateOrder(f.g, f.oracle, {f.r2, f.r1}), 4.0);
}

TEST(ExhaustiveSearch, Fig1aFindsBothExtremes) {
  Fig1a f;
  const ExhaustiveResult result = ExhaustiveSearch(f.g, f.oracle);
  EXPECT_EQ(result.orders_evaluated, 2u);
  EXPECT_DOUBLE_EQ(result.best, 3.0);
  EXPECT_DOUBLE_EQ(result.worst, 4.0);
  EXPECT_EQ(result.best_order, (std::vector<OpId>{f.r1, f.r2}));
}

TEST(ExhaustiveSearch, TacIsOptimalOnFig1a) {
  Fig1a f;
  const Schedule tac = core::Tac(f.g, f.oracle);
  EXPECT_DOUBLE_EQ(EvaluateSchedule(f.g, f.oracle, tac), 3.0);
}

TEST(ExhaustiveSearch, RejectsTooManyRecvs) {
  models::RandomDagOptions options;
  options.num_recvs = 9;
  const Graph g = models::MakeRandomDag(options, 1);
  const AnalyticalTimeOracle oracle{PlatformModel{}};
  EXPECT_THROW(ExhaustiveSearch(g, oracle, 8), std::invalid_argument);
}

// The core property sweep: on many random DAGs, TAC must land near the
// exhaustive optimum, beat the mean (random) order, and TIC must beat the
// worst order. This is the strongest certificate we can produce for an
// NP-hard problem.
class OptimalitySweep : public ::testing::TestWithParam<std::uint64_t> {};

TEST_P(OptimalitySweep, TacNearOptimalTicBeatsWorst) {
  const std::uint64_t seed = GetParam();
  models::RandomDagOptions options;
  options.num_recvs = 6;
  options.num_computes = 10;
  options.num_layers = 3;
  const Graph g = models::MakeRandomDag(options, seed);

  // Comparable comm/comp magnitudes make ordering matter.
  PlatformModel hw;
  hw.compute_rate = 1.0;
  hw.bandwidth_bps = 1e6;
  hw.latency_s = 0.0;
  const AnalyticalTimeOracle oracle(hw);

  const ExhaustiveResult space = ExhaustiveSearch(g, oracle);
  ASSERT_EQ(space.orders_evaluated, 720u);

  const double tac = EvaluateSchedule(g, oracle, core::Tac(g, oracle));
  const double tic = EvaluateSchedule(g, oracle, core::Tic(g));

  // TAC within 10% of the optimum (it is a heuristic, not exact).
  EXPECT_LE(tac, space.best * 1.10 + 1e-9) << "seed " << seed;
  // TAC no worse than the average random order; TIC — which ignores the
  // (here heavily skewed) transfer times — may land slightly above the
  // mean on adversarial random DAGs, so it gets a small margin. On real
  // DNN structure TIC tracks TAC (Appendix B; bench_figures --figure
  // fig13).
  EXPECT_LE(tac, space.mean + 1e-9) << "seed " << seed;
  EXPECT_LE(tic, space.mean * 1.08 + 1e-9) << "seed " << seed;
  // And strictly better than the worst order when there is any spread.
  if (space.worst > space.best * 1.01) {
    EXPECT_LT(tac, space.worst) << "seed " << seed;
  }
}

INSTANTIATE_TEST_SUITE_P(RandomDags, OptimalitySweep,
                         ::testing::Range<std::uint64_t>(1, 41));

TEST(ExhaustiveSearch, MeanBetweenBestAndWorst) {
  models::RandomDagOptions options;
  options.num_recvs = 5;
  const Graph g = models::MakeRandomDag(options, 7);
  const AnalyticalTimeOracle oracle{PlatformModel{
      .compute_rate = 1.0, .bandwidth_bps = 1e6, .latency_s = 0.0}};
  const ExhaustiveResult result = ExhaustiveSearch(g, oracle);
  EXPECT_LE(result.best, result.mean);
  EXPECT_LE(result.mean, result.worst);
  EXPECT_EQ(result.orders_evaluated, 120u);
}

}  // namespace
}  // namespace tictac
