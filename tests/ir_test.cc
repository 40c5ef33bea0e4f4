// Unit tests of the flat task IR and its lowering passes (DESIGN.md
// §10): Module defaults, in-order pred appends and invariant
// validation, the fixed pass orders and their hook (per-pass invariant
// checks, dumps), and the satellite knobs the passes consume
// (ChunkingOptions::Validate, shard strategies, topology tokens and
// their ClusterConfig validation rules).
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

// A single-job logical module of two nodes with the given pred lists;
// by default well-formed, with one edge 0 -> 1.
Module TinyModule(std::vector<NodeId> preds0 = {},
                  std::vector<NodeId> preds1 = {0}) {
  Module m;
  m.SetPreds(m.AddNode(), preds0);
  m.SetPreds(m.AddNode(), preds1);
  m.jobs.emplace_back();
  m.jobs.back().config = EnvG(1, 1, true);
  m.ranges.push_back(JobRange{0, 2, kNoNode, 0});
  return m;
}

// Preds are appended in node order: only the newest node takes a list,
// and only once, so the CSR is each node's list laid end to end.
TEST(Module, SetPredsAppendsTheNewestNodesListOnce) {
  Module m;
  const NodeId a = m.AddNode();
  const NodeId b = m.AddNode();
  const NodeId to_a[] = {a};
  EXPECT_THROW(m.SetPreds(a, to_a), std::invalid_argument);  // not newest
  const NodeId list[] = {a, 7, a};  // order and repeats are kept
  m.SetPreds(b, list);
  EXPECT_THROW(m.SetPreds(b, to_a), std::invalid_argument);  // set twice
  const NodeId c = m.AddNode();
  m.SetPreds(c, {});  // an empty list is a no-op append
  EXPECT_TRUE(m.preds(a).empty());
  EXPECT_EQ(std::vector<NodeId>(m.preds(b).begin(), m.preds(b).end()),
            (std::vector<NodeId>{a, 7, a}));
  EXPECT_TRUE(m.preds(c).empty());
  EXPECT_EQ(m.graph().pred_begin, (std::vector<std::size_t>{0, 0, 3, 3}));
  EXPECT_EQ(m.graph().pred_ids, (std::vector<NodeId>{a, 7, a}));
}

TEST(Module, ValidateAcceptsWellFormedModule) {
  EXPECT_NO_THROW(TinyModule().Validate());
}

TEST(Module, ValidateRejectsOutOfRangePreds) {
  EXPECT_THROW(TinyModule({}, {42}).Validate(), std::invalid_argument);
}

TEST(Module, ValidateRejectsSelfDependency) {
  EXPECT_THROW(TinyModule({}, {1}).Validate(), std::invalid_argument);
}

TEST(Module, ValidateRejectsCycles) {
  Module m = TinyModule({1}, {0});  // a <- b while b <- a
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
// Lowering passes

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

TEST(LoweringPasses, PsOrderReachesMerged) {
  Module m = RunLoweringPasses(LogicalModule(), runtime::Topology::kPsFabric);
  EXPECT_EQ(m.stage, Stage::kMerged);
  EXPECT_FALSE(m.ring);
  EXPECT_GT(m.num_resources, 0);
  EXPECT_EQ(m.total_workers, 2);
  EXPECT_NO_THROW(m.Validate());
}

TEST(LoweringPasses, RingOrderSkipsThePsStage) {
  Module m = RunLoweringPasses(LogicalModule(), runtime::Topology::kRing);
  EXPECT_EQ(m.stage, Stage::kMerged);
  EXPECT_TRUE(m.ring);
  EXPECT_EQ(m.num_resources, 2 * 2);  // W workers + W ring links
}

// The pass names the hook sees, in order, for `topology`.
std::vector<std::string> HookedPasses(runtime::Topology topology,
                                      int iterations) {
  std::vector<std::string> seen;
  RunLoweringPasses(LogicalModule(), topology, iterations,
                    [&](const std::string& pass, const Module& module) {
                      seen.push_back(pass);
                      EXPECT_FALSE(module.DebugSummary().empty());
                    });
  return seen;
}

TEST(LoweringPasses, HookSeesTheDocumentedOrder) {
  EXPECT_EQ(HookedPasses(runtime::Topology::kPsFabric, 3),
            (std::vector<std::string>{"expand_replicas", "lower_ps_fabric",
                                      "merge_jobs", "lower_flow_nics",
                                      "apply_arrival_offsets",
                                      "pipeline_iters:3"}));
  EXPECT_EQ(HookedPasses(runtime::Topology::kRing, 1),
            (std::vector<std::string>{"expand_replicas",
                                      "lower_allreduce_ring",
                                      "apply_arrival_offsets",
                                      "pipeline_iters:1"}));
  EXPECT_THROW(
      RunLoweringPasses(LogicalModule(), runtime::Topology::kPsFabric, 0),
      std::invalid_argument);
}

TEST(LoweringPasses, InvariantCheckNamesTheFailingPass) {
  // A parameter placed on a PS past num_ps: lower_ps_fabric gives its
  // read a job-local resource, which merge_jobs maps past num_resources.
  // With a hook set, the violation is attributed to merge_jobs by name.
  Module m = LogicalModule(/*training=*/true, /*workers=*/2, /*ps=*/1);
  m.jobs.front().ps_of_param.front() = 1;
  try {
    RunLoweringPasses(std::move(m), runtime::Topology::kPsFabric, 1,
                      [](const std::string&, const Module&) {});
    FAIL() << "expected an invariant diagnostic";
  } catch (const std::invalid_argument& e) {
    EXPECT_NE(std::string(e.what()).find(
                  "ir: invariant violated after pass 'merge_jobs'"),
              std::string::npos)
        << e.what();
  }
}

TEST(LoweringPasses, ExportMovesTheModulesTaskGraph) {
  const Module m = RunLoweringPasses(LogicalModule(true, 4, 2),
                                     runtime::Topology::kPsFabric);
  // Each pass appends every node's list once, in node order, so the CSR
  // holds exactly the per-node pred lists laid end to end; the exported
  // Lowering holds that same graph.
  std::size_t entries = 0;
  for (NodeId n = 0; n < static_cast<NodeId>(m.size()); ++n) {
    entries += m.preds(n).size();
  }
  EXPECT_EQ(m.graph().pred_ids.size(), entries);
  const sim::TaskGraph& graph = m.graph();
  const runtime::Lowering lowering = ToLowering(m);
  EXPECT_EQ(lowering.tasks.duration, graph.duration);
  EXPECT_EQ(lowering.tasks.resource, graph.resource);
  EXPECT_EQ(lowering.tasks.priority, graph.priority);
  EXPECT_EQ(lowering.tasks.gate_group, graph.gate_group);
  EXPECT_EQ(lowering.tasks.gate_rank, graph.gate_rank);
  EXPECT_EQ(lowering.tasks.op, graph.op);
  EXPECT_EQ(lowering.tasks.kind, graph.kind);
  EXPECT_EQ(lowering.tasks.worker, graph.worker);
  EXPECT_EQ(lowering.tasks.pred_begin, graph.pred_begin);
  EXPECT_EQ(lowering.tasks.pred_ids, graph.pred_ids);
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
