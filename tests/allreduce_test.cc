// Ring all-reduce through LowerCluster on a ring config (runtime/lowering.h).
#include <gtest/gtest.h>

#include <stdexcept>

#include "core/tic.h"
#include "models/builder.h"
#include "models/zoo.h"
#include "runtime/lowering.h"
#include "runtime/sharding.h"

namespace tictac::runtime {
namespace {

ClusterConfig Ring(ClusterConfig config) {
  config.topology = Topology::kRing;
  return config;
}

// The ring takes no schedule and no parameter placement.
Lowering LowerRing(const core::Graph& graph, const ClusterConfig& config) {
  return LowerCluster(graph, core::Schedule{}, {}, config);
}

struct Fixture {
  explicit Fixture(int workers = 4)
      : info(models::FindModel("Inception v1")),
        config(Ring(EnvG(workers, /*num_ps=*/1, /*training=*/true))),
        graph(models::BuildWorkerGraph(info, {.training = true})) {}

  const models::ModelInfo& info;
  ClusterConfig config;
  core::Graph graph;
};

TEST(AllReduce, ResourceAndTaskCounts) {
  Fixture f(4);
  const Lowering low = LowerRing(f.graph, f.config);
  EXPECT_EQ(low.num_resources, 8);  // 4 workers + 4 ring links
  // Worker tasks: one per op per worker; ring: P * 2(W-1) rounds * W.
  const std::size_t ring_tasks =
      static_cast<std::size_t>(f.info.num_params) * 2 * 3 * 4;
  EXPECT_EQ(low.tasks.size(), f.graph.size() * 4 + ring_tasks);
}

TEST(AllReduce, ValidatesAndRuns) {
  Fixture f;
  const Lowering low = LowerRing(f.graph, f.config);
  sim::TaskGraphSim sim = low.BuildSim();
  EXPECT_NO_THROW(sim.Validate());
  const sim::SimResult result = sim.Run(f.config.sim, 1);
  EXPECT_GT(result.makespan, 0.0);
}

TEST(AllReduce, LocalWeightReadsAreFree) {
  Fixture f;
  const Lowering low = LowerRing(f.graph, f.config);
  for (std::size_t t = 0; t < low.tasks.size(); ++t) {
    if (low.tasks.kind[t] == core::OpKind::kRecv) {
      EXPECT_EQ(low.tasks.duration[t], 0.0);
      // On the worker, not a channel.
      EXPECT_EQ(low.tasks.resource[t], low.tasks.worker[t]);
    }
  }
}

TEST(AllReduce, ComputeNeverWaitsOnNetworkAtIterationStart) {
  // Without parameter pulls, the forward pass starts immediately: the
  // first compute op must start at t = 0.
  Fixture f;
  const Lowering low = LowerRing(f.graph, f.config);
  sim::TaskGraphSim sim = low.BuildSim();
  sim::SimOptions options;  // no jitter
  const sim::SimResult result = sim.Run(options, 1);
  double first_compute_start = 1e100;
  for (sim::TaskId t : low.worker_tasks[0]) {
    const auto ti = static_cast<std::size_t>(t);
    if (low.tasks.kind[ti] == core::OpKind::kCompute) {
      first_compute_start = std::min(first_compute_start, result.start[ti]);
    }
  }
  EXPECT_EQ(first_compute_start, 0.0);
}

TEST(AllReduce, IgnoresScheduleAndParameterPlacement) {
  // The ring's rounds fix the transfer order: a TIC schedule and a PS
  // placement handed to LowerCluster change nothing.
  Fixture f;
  const Lowering plain = LowerRing(f.graph, f.config);
  const Lowering given = LowerCluster(
      f.graph, core::Tic(f.graph),
      ShardParams(models::ParamSizes(f.info), 2), f.config);
  EXPECT_EQ(given.num_resources, plain.num_resources);
  EXPECT_EQ(given.tasks.duration, plain.tasks.duration);
  EXPECT_EQ(given.tasks.resource, plain.tasks.resource);
  EXPECT_EQ(given.tasks.priority, plain.tasks.priority);
  EXPECT_EQ(given.tasks.gate_group, plain.tasks.gate_group);
  EXPECT_EQ(given.tasks.gate_rank, plain.tasks.gate_rank);
  EXPECT_EQ(given.tasks.pred_begin, plain.tasks.pred_begin);
  EXPECT_EQ(given.tasks.pred_ids, plain.tasks.pred_ids);
}

TEST(AllReduce, KeepsLegacyErrorPrecedence) {
  const core::Graph graph = models::BuildWorkerGraph(
      models::FindModel("Inception v1"), {.training = true});
  ClusterConfig config = Ring(EnvG(1, 1, true));
  try {
    LowerRing(graph, config);
    FAIL() << "expected the worker-count diagnostic";
  } catch (const std::invalid_argument& e) {
    EXPECT_STREQ(e.what(), "all-reduce needs >= 2 workers");
  }
  config = Ring(EnvG(4, 1, false));
  try {
    LowerRing(graph, config);
    FAIL() << "expected the training-only diagnostic";
  } catch (const std::invalid_argument& e) {
    EXPECT_STREQ(e.what(), "all-reduce applies to training only");
  }
}

TEST(AllReduce, MoreWorkersShrinkPerLinkChunks) {
  // Ring all-reduce is bandwidth-optimal: per-link bytes ~ 2 * size, and
  // the chunk duration falls with W.
  Fixture f4(4);
  Fixture f8(8);
  const Lowering low4 = LowerRing(f4.graph, f4.config);
  const Lowering low8 = LowerRing(f8.graph, f8.config);
  const auto max_chunk = [](const sim::TaskGraph& tasks) {
    double longest = 0.0;
    for (std::size_t t = 0; t < tasks.size(); ++t) {
      if (tasks.op[t] == core::kInvalidOp) {
        longest = std::max(longest, tasks.duration[t]);
      }
    }
    return longest;
  };
  EXPECT_LT(max_chunk(low8.tasks), max_chunk(low4.tasks));
}

}  // namespace
}  // namespace tictac::runtime
