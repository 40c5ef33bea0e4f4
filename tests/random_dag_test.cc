#include "models/random_dag.h"

#include <gtest/gtest.h>

#include "core/properties.h"
#include "core/tac.h"
#include "core/tic.h"

namespace tictac::models {
namespace {

using core::Graph;
using core::OpId;
using core::OpKind;

class RandomDagSweep : public ::testing::TestWithParam<std::uint64_t> {};

TEST_P(RandomDagSweep, StructuralInvariants) {
  const std::uint64_t seed = GetParam();
  RandomDagOptions options;
  options.num_recvs = 5 + static_cast<int>(seed % 7);
  options.num_computes = 8 + static_cast<int>(seed % 13);
  options.num_layers = 2 + static_cast<int>(seed % 4);
  options.with_sends = (seed % 2) == 0;
  const Graph g = MakeRandomDag(options, seed);

  EXPECT_TRUE(g.IsAcyclic());
  const auto recvs = g.RecvOps();
  EXPECT_EQ(recvs.size(), static_cast<std::size_t>(options.num_recvs));
  for (OpId r : recvs) {
    EXPECT_TRUE(g.preds(r).empty());
    EXPECT_FALSE(g.succs(r).empty());
  }
  const auto sends = g.OpsOfKind(OpKind::kSend);
  EXPECT_EQ(sends.size(),
            options.with_sends ? recvs.size() : 0u);
  for (OpId s : sends) EXPECT_TRUE(g.succs(s).empty());

  // Common sink: every recv reaches every... at least, every recv's dep
  // set is contained in the final compute's dep set.
  core::PropertyIndex index(g);
  OpId sink = core::kInvalidOp;
  for (const core::Op& op : g.ops()) {
    if (op.kind == OpKind::kCompute && op.name == "sink") sink = op.id;
  }
  ASSERT_NE(sink, core::kInvalidOp);
  EXPECT_EQ(index.dep(sink).size(), recvs.size());
}

TEST_P(RandomDagSweep, SchedulersProduceValidTotalOrders) {
  const Graph g = MakeRandomDag({}, GetParam());
  const core::Schedule tic = core::Tic(g);
  EXPECT_TRUE(tic.CoversAllRecvs(g));

  core::GeneralTimeOracle oracle;
  const core::Schedule tac = core::Tac(g, oracle);
  EXPECT_TRUE(tac.CoversAllRecvs(g));
  // TAC priorities form a dense permutation.
  std::vector<int> priorities;
  for (OpId r : g.RecvOps()) priorities.push_back(tac.priority(r));
  std::sort(priorities.begin(), priorities.end());
  for (std::size_t i = 0; i < priorities.size(); ++i) {
    EXPECT_EQ(priorities[i], static_cast<int>(i));
  }
}

INSTANTIATE_TEST_SUITE_P(Seeds, RandomDagSweep,
                         ::testing::Range<std::uint64_t>(0, 25));

TEST(RandomDag, DeterministicPerSeed) {
  const Graph a = MakeRandomDag({}, 99);
  const Graph b = MakeRandomDag({}, 99);
  ASSERT_EQ(a.size(), b.size());
  ASSERT_EQ(a.num_edges(), b.num_edges());
  for (std::size_t i = 0; i < a.size(); ++i) {
    const auto id = static_cast<OpId>(i);
    EXPECT_EQ(a.op(id).bytes, b.op(id).bytes);
    EXPECT_EQ(a.preds(id), b.preds(id));
  }
}

TEST(RandomDag, DifferentSeedsDiffer) {
  const Graph a = MakeRandomDag({}, 1);
  const Graph b = MakeRandomDag({}, 2);
  bool differs = a.num_edges() != b.num_edges();
  for (std::size_t i = 0; !differs && i < a.size(); ++i) {
    const auto id = static_cast<OpId>(i);
    differs = a.op(id).bytes != b.op(id).bytes || a.preds(id) != b.preds(id);
  }
  EXPECT_TRUE(differs);
}

}  // namespace
}  // namespace tictac::models
