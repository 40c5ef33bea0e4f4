// Unit tests of the flat task IR and the pass machinery (DESIGN.md
// §10): PredArena's CSR appends, Module defaults and invariant
// validation, the stage contract / pass-order errors, pipeline options
// (invariant checks, dump hooks), and the satellite knobs the
// pipeline consumes (ChunkingOptions::Validate, shard strategies,
// topology tokens and their ClusterConfig validation rules).
#include "ir/module.h"

#include <gtest/gtest.h>

#include <span>
#include <stdexcept>
#include <string>
#include <utility>
#include <vector>

#include "core/chunking.h"
#include "core/tic.h"
#include "ir/lower.h"
#include "ir/pass.h"
#include "ir/passes.h"
#include "models/builder.h"
#include "models/zoo.h"
#include "runtime/runner.h"
#include "runtime/sharding.h"

namespace tictac::ir {
namespace {

using runtime::ClusterConfig;
using runtime::EnvG;

// ---------------------------------------------------------------------------
// PredArena

TEST(PredArena, EmptyListIsAlwaysIdZero) {
  PredArena arena;
  EXPECT_EQ(arena.Intern({}), PredArena::kEmptyList);
  EXPECT_TRUE(arena.list(PredArena::kEmptyList).empty());
  EXPECT_EQ(arena.num_lists(), 1u);  // the empty list itself
  EXPECT_EQ(arena.pool_entries(), 0u);
}

TEST(PredArena, AppendsListsWithDenseIdsInAppendOrder) {
  PredArena arena;
  const std::vector<NodeId> a{3, 1, 2};
  const std::vector<NodeId> b{3, 1, 2};
  const std::vector<NodeId> c{3, 1};
  const auto ida = arena.Intern(a);
  const auto idb = arena.Intern(b);
  const auto idc = arena.Intern(c);
  // Ids are dense in append order; equal content is stored again.
  EXPECT_EQ(ida, 1);
  EXPECT_EQ(idb, 2);
  EXPECT_EQ(idc, 3);
  // The empty list stays id 0 and appends nothing.
  EXPECT_EQ(arena.Intern({}), PredArena::kEmptyList);
  EXPECT_EQ(arena.num_lists(), 4u);     // empty, a, b, c
  EXPECT_EQ(arena.pool_entries(), 8u);  // 3 + 3 + 2 NodeIds
  // list(id) round-trips every appended list.
  const auto same = [](std::span<const NodeId> got,
                       const std::vector<NodeId>& want) {
    return std::vector<NodeId>(got.begin(), got.end()) == want;
  };
  EXPECT_TRUE(same(arena.list(ida), a));
  EXPECT_TRUE(same(arena.list(idb), b));
  EXPECT_TRUE(same(arena.list(idc), c));
  EXPECT_TRUE(arena.list(PredArena::kEmptyList).empty());
}

TEST(PredArena, OrderIsContentNotSet) {
  PredArena arena;
  const std::vector<NodeId> a{1, 2};
  const std::vector<NodeId> b{2, 1};
  EXPECT_NE(arena.Intern(a), arena.Intern(b));  // pred order is observable
}

// ---------------------------------------------------------------------------
// Module

TEST(Module, AddNodeDefaultsMatchSimTaskDefaults) {
  Module m;
  const NodeId n = m.AddNode();
  EXPECT_EQ(m.size(), 1u);
  EXPECT_EQ(m.duration(n), 0.0);
  EXPECT_EQ(m.resource(n), -1);  // unassigned until a lowering pass
  EXPECT_EQ(m.priority(n), sim::kNoPriority);
  EXPECT_EQ(m.gate_group(n), -1);
  EXPECT_EQ(m.gate_rank(n), -1);
  EXPECT_TRUE(m.preds(n).empty());
  EXPECT_EQ(m.kind(n), core::OpKind::kCompute);
  EXPECT_EQ(m.op(n), core::kInvalidOp);
  EXPECT_EQ(m.worker(n), -1);
  EXPECT_EQ(m.job(n), -1);
  EXPECT_EQ(m.iteration(n), 0);
  EXPECT_EQ(m.param(n), -1);
  EXPECT_EQ(m.rank(n), kNoRank);
  EXPECT_FALSE(m.is_delay(n));
}

// A minimal well-formed single-job logical module: two nodes, one edge.
Module TinyModule() {
  Module m;
  const NodeId a = m.AddNode();
  const NodeId b = m.AddNode();
  const NodeId preds[] = {a};
  m.SetPreds(b, preds);
  m.jobs.emplace_back();
  m.jobs.back().config = EnvG(1, 1, true);
  m.ranges.push_back(JobRange{0, 2, kNoNode, 0});
  return m;
}

TEST(Module, ValidateAcceptsWellFormedModule) {
  EXPECT_NO_THROW(TinyModule().Validate());
}

TEST(Module, ValidateRejectsOutOfRangePreds) {
  Module m = TinyModule();
  const NodeId bogus[] = {42};
  m.SetPreds(1, bogus);
  EXPECT_THROW(m.Validate(), std::invalid_argument);
}

TEST(Module, ValidateRejectsSelfDependency) {
  Module m = TinyModule();
  const NodeId self[] = {1};
  m.SetPreds(1, self);
  EXPECT_THROW(m.Validate(), std::invalid_argument);
}

TEST(Module, ValidateRejectsCycles) {
  Module m = TinyModule();
  const NodeId back[] = {1};  // a <- b while b <- a
  m.SetPreds(0, back);
  try {
    m.Validate();
    FAIL() << "expected a cycle diagnostic";
  } catch (const std::invalid_argument& e) {
    EXPECT_NE(std::string(e.what()).find("cycle"), std::string::npos)
        << e.what();
  }
}

TEST(Module, ValidateRejectsRangesThatDoNotTile) {
  Module m = TinyModule();
  m.ranges.back().last = 1;  // one trailing node unowned
  EXPECT_THROW(m.Validate(), std::invalid_argument);
}

TEST(Module, ValidateRejectsResourcesBeforeLowering) {
  Module m = TinyModule();
  m.resource(0) = 3;  // kLogical nodes must not carry resources
  EXPECT_THROW(m.Validate(), std::invalid_argument);
}

TEST(Module, ValidateRejectsHalfSetGates) {
  Module m = TinyModule();
  m.gate_group(0) = 2;  // gate_rank left unset
  EXPECT_THROW(m.Validate(), std::invalid_argument);
}

TEST(Module, ValidateRejectsNegativeDurations) {
  Module m = TinyModule();
  m.duration(0) = -1.0;
  EXPECT_THROW(m.Validate(), std::invalid_argument);
}

TEST(Module, DebugSummaryNamesStageAndCounts) {
  const Module m = TinyModule();
  const std::string summary = m.DebugSummary();
  EXPECT_NE(summary.find("logical"), std::string::npos) << summary;
  EXPECT_NE(summary.find("nodes=2"), std::string::npos) << summary;
}

// ---------------------------------------------------------------------------
// Stage contract / pass ordering

// One real job (smallest zoo model) imported at kLogical.
Module LogicalModule(bool training = true, int workers = 2, int ps = 1) {
  const auto& info = models::FindModel("Inception v1");
  auto graph = std::make_shared<core::Graph>(
      models::BuildWorkerGraph(info, {.training = training}));
  Module m;
  JobInfo job;
  job.config = EnvG(workers, ps, training);
  job.ps_of_param = runtime::ShardParams(models::ParamSizes(info),
                                         ps);
  job.graph = graph;
  AddJob(m, std::move(job));
  return m;
}

TEST(PassOrdering, LoweringBeforeExpansionFailsLoudly) {
  Module m = LogicalModule();
  try {
    MakeLowerPsFabricPass()->Run(m);
    FAIL() << "expected a stage diagnostic";
  } catch (const std::invalid_argument& e) {
    const std::string what = e.what();
    EXPECT_NE(what.find("ir.lower_ps_fabric: requires a replicated module"),
              std::string::npos)
        << what;
    EXPECT_NE(what.find("check the pass order"), std::string::npos) << what;
  }
}

TEST(PassOrdering, MergeBeforeLoweringFailsLoudly) {
  Module m = LogicalModule();
  MakeExpandReplicasPass()->Run(m);
  EXPECT_THROW(MakeMergeJobsPass()->Run(m), std::invalid_argument);
}

TEST(PassOrdering, StandardPresetReachesMerged) {
  Module m = StandardLoweringPipeline(runtime::Topology::kPsFabric)
                 .Run(LogicalModule());
  EXPECT_EQ(m.stage, Stage::kMerged);
  EXPECT_FALSE(m.ring);
  EXPECT_GT(m.num_resources, 0);
  EXPECT_EQ(m.total_workers, 2);
  EXPECT_NO_THROW(m.Validate());
}

TEST(PassOrdering, RingPresetSkipsThePsStage) {
  Module m = StandardLoweringPipeline(runtime::Topology::kRing)
                 .Run(LogicalModule());
  EXPECT_EQ(m.stage, Stage::kMerged);
  EXPECT_TRUE(m.ring);
  EXPECT_EQ(m.num_resources, 2 * 2);  // W workers + W ring links
}

TEST(PassPipeline, PresetNamesMatchTheDocumentedOrder) {
  const auto ps = StandardLoweringPipeline(runtime::Topology::kPsFabric, 3);
  EXPECT_EQ(ps.names(),
            (std::vector<std::string>{"expand_replicas", "lower_ps_fabric",
                                      "merge_jobs", "lower_flow_nics",
                                      "apply_arrival_offsets",
                                      "pipeline_iters:3"}));
  EXPECT_THROW(StandardLoweringPipeline(runtime::Topology::kPsFabric, 0),
               std::invalid_argument);
}

TEST(PassPipeline, DumpHookSeesEveryPassInOrder) {
  std::vector<std::string> seen;
  PipelineOptions options;
  options.check_invariants = true;
  options.dump = [&](const std::string& pass, const Module& module) {
    seen.push_back(pass);
    EXPECT_FALSE(module.DebugSummary().empty());
  };
  const auto pipeline =
      StandardLoweringPipeline(runtime::Topology::kPsFabric);
  pipeline.Run(LogicalModule(), options);
  EXPECT_EQ(seen, pipeline.names());
}

TEST(PassPipeline, InvariantCheckNamesTheFailingPass) {
  // A pass that corrupts the module: the pipeline's check_invariants
  // must attribute the violation to it by name.
  struct Corruptor final : Pass {
    std::string name() const override { return "corruptor"; }
    void Run(Module& module) const override { module.duration(0) = -1.0; }
  };
  PassPipeline pipeline;
  pipeline.Add(std::make_shared<Corruptor>());
  PipelineOptions options;
  options.check_invariants = true;
  try {
    pipeline.Run(TinyModule(), options);
    FAIL() << "expected an invariant diagnostic";
  } catch (const std::invalid_argument& e) {
    EXPECT_NE(std::string(e.what()).find("after pass 'corruptor'"),
              std::string::npos)
        << e.what();
  }
}

TEST(PassPipeline, ArenaHoldsEachNodesPredsOnceInNodeOrder) {
  const Module m = StandardLoweringPipeline(runtime::Topology::kPsFabric)
                       .Run(LogicalModule(true, 4, 2));
  // Each pass appends every node's list once, in node order: the pool is
  // exactly the per-node pred lists laid end to end, one list per node
  // with preds, and the exported tasks carry the same lists.
  std::size_t entries = 0;
  std::size_t lists = 1;  // the empty list
  for (NodeId n = 0; n < static_cast<NodeId>(m.size()); ++n) {
    entries += m.preds(n).size();
    lists += m.preds(n).empty() ? 0 : 1;
  }
  EXPECT_EQ(m.arena().pool_entries(), entries);
  EXPECT_EQ(m.arena().num_lists(), lists);
  const runtime::Lowering lowering = ToLowering(m);
  ASSERT_EQ(lowering.tasks.size(), m.size());
  for (NodeId n = 0; n < static_cast<NodeId>(m.size()); ++n) {
    const std::span<const NodeId> preds = m.preds(n);
    EXPECT_EQ(lowering.tasks[static_cast<std::size_t>(n)].preds,
              std::vector<sim::TaskId>(preds.begin(), preds.end()));
  }
}

// ---------------------------------------------------------------------------
// Satellite knobs consumed by the pipeline

// A chunk size that splits the worker graph past the lowering's task
// budget, once replicated per worker, is rejected naming chunk= before
// ChunkTransfers allocates: chunk=1 on VGG-16 training would be ~1.1e9
// ops, and chunk=128 ~8.6e6 ops, twice over with two workers.
TEST(ChunkingBudget, TinyChunksAreRejectedBeforeTheRewrite) {
  runtime::ClusterConfig config;
  config.training = true;
  for (const auto& [chunk, workers] : {std::pair{1, 1}, std::pair{128, 2}}) {
    config.chunk_bytes = chunk;
    config.num_workers = workers;
    const std::string named = "chunk=" + std::to_string(chunk) +
                              " splits VGG-16's worker graph into ";
    try {
      runtime::Runner(models::FindModel("VGG-16"), config);
      FAIL() << "expected rejection of chunk_bytes=" << chunk;
    } catch (const std::invalid_argument& e) {
      const std::string what = e.what();
      EXPECT_NE(what.find(named), std::string::npos) << what;
      EXPECT_NE(what.find("x workers=" + std::to_string(workers)),
                std::string::npos)
          << what;
      EXPECT_NE(what.find("ir::kMaxLoweredTasks"), std::string::npos) << what;
    }
  }
  config.chunk_bytes = 4 << 20;
  EXPECT_NO_THROW(runtime::Runner(models::FindModel("VGG-16"), config));
}

TEST(ShardStrategy, TokensRoundTrip) {
  EXPECT_STREQ(runtime::ShardStrategyToken(runtime::ShardStrategy::kBytes),
               "bytes");
  EXPECT_STREQ(runtime::ShardStrategyToken(runtime::ShardStrategy::kEven),
               "even");
  EXPECT_EQ(runtime::ParseShardStrategy("bytes"),
            runtime::ShardStrategy::kBytes);
  EXPECT_EQ(runtime::ParseShardStrategy("even"),
            runtime::ShardStrategy::kEven);
  EXPECT_THROW(runtime::ParseShardStrategy("hash"), std::invalid_argument);
}

TEST(ShardStrategy, EvenIsRoundRobinAndBytesBalancesLoad) {
  const std::vector<std::int64_t> bytes{100, 1, 1, 1, 100, 1};
  const auto even =
      runtime::ShardParams(bytes, 2, runtime::ShardStrategy::kEven);
  for (std::size_t p = 0; p < bytes.size(); ++p) {
    EXPECT_EQ(even[p], static_cast<int>(p % 2));
  }
  const auto balanced =
      runtime::ShardParams(bytes, 2, runtime::ShardStrategy::kBytes);
  const auto loads = runtime::ShardLoads(bytes, balanced, 2);
  EXPECT_NE(balanced[0], balanced[4]);  // the two big params split up
  EXPECT_LE(std::max(loads[0], loads[1]) - std::min(loads[0], loads[1]), 2);
}

TEST(Topology, TokensRoundTrip) {
  EXPECT_STREQ(runtime::TopologyToken(runtime::Topology::kPsFabric), "ps");
  EXPECT_STREQ(runtime::TopologyToken(runtime::Topology::kRing), "ring");
  EXPECT_EQ(runtime::ParseTopology("ps"), runtime::Topology::kPsFabric);
  EXPECT_EQ(runtime::ParseTopology("ring"), runtime::Topology::kRing);
  EXPECT_THROW(runtime::ParseTopology("mesh"), std::invalid_argument);
}

TEST(Topology, ClusterValidateEnforcesRingRules) {
  ClusterConfig ring = EnvG(4, 1, true);
  ring.topology = runtime::Topology::kRing;
  EXPECT_NO_THROW(ring.Validate());
  ring.num_workers = 1;  // a ring needs >= 2 participants
  EXPECT_THROW(ring.Validate(), std::invalid_argument);
  ring.num_workers = 4;
  ring.training = false;  // all-reduce aggregates gradients: training only
  EXPECT_THROW(ring.Validate(), std::invalid_argument);
}

}  // namespace
}  // namespace tictac::ir
