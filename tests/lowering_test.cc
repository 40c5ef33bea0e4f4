#include "runtime/lowering.h"

#include <gtest/gtest.h>

#include <stdexcept>
#include <string>
#include <vector>

#include "core/tic.h"
#include "models/builder.h"
#include "models/zoo.h"
#include "runtime/runner.h"
#include "runtime/sharding.h"

namespace tictac::runtime {
namespace {

struct Fixture {
  explicit Fixture(const char* name = "Inception v1", bool training = true,
                   int workers = 4, int ps = 2)
      : info(models::FindModel(name)),
        config(EnvG(workers, ps, training)),
        graph(models::BuildWorkerGraph(info, {.training = training})),
        ps_of(ShardParams(models::ParamSizes(info), ps)) {}

  const models::ModelInfo& info;
  ClusterConfig config;
  core::Graph graph;
  std::vector<int> ps_of;
};

TEST(Lowering, ResourceLayoutAndCounts) {
  Fixture f;
  const Lowering low =
      LowerCluster(f.graph, core::Schedule(), f.ps_of, f.config);
  const int W = 4;
  const int S = 2;
  EXPECT_EQ(low.num_resources, W + 2 * W * S + S);
  EXPECT_EQ(low.num_workers, W);

  // Per worker: one task per worker-graph op.
  for (int w = 0; w < W; ++w) {
    EXPECT_EQ(low.worker_tasks[static_cast<std::size_t>(w)].size(),
              f.graph.size());
    EXPECT_EQ(low.worker_recv_tasks[static_cast<std::size_t>(w)].size(),
              static_cast<std::size_t>(f.info.num_params));
  }
  // Training PS tasks: P reads + P aggregates + P updates.
  const std::size_t expected =
      static_cast<std::size_t>(f.info.num_params) * 3 +
      f.graph.size() * static_cast<std::size_t>(W);
  EXPECT_EQ(low.tasks.size(), expected);
}

TEST(Lowering, InferenceHasNoAggregateOrUpdate) {
  Fixture f("Inception v1", /*training=*/false);
  const Lowering low =
      LowerCluster(f.graph, core::Schedule(), f.ps_of, f.config);
  for (const core::OpKind kind : low.tasks.kind) {
    EXPECT_NE(kind, core::OpKind::kAggregate);
    EXPECT_NE(kind, core::OpKind::kUpdate);
  }
  const std::size_t expected = static_cast<std::size_t>(f.info.num_params) +
                               f.graph.size() * 4u;
  EXPECT_EQ(low.tasks.size(), expected);
}

TEST(Lowering, BaselineHasNoGatesOrPriorities) {
  Fixture f;
  const Lowering low =
      LowerCluster(f.graph, core::Schedule(), f.ps_of, f.config);
  for (std::size_t t = 0; t < low.tasks.size(); ++t) {
    EXPECT_EQ(low.tasks.gate_group[t], -1);
    EXPECT_EQ(low.tasks.priority[t], sim::kNoPriority);
  }
}

TEST(Lowering, ScheduledRecvsCarryGatesAndPriorities) {
  Fixture f;
  const core::Schedule schedule = core::Tic(f.graph);
  const Lowering low = LowerCluster(f.graph, schedule, f.ps_of, f.config);
  for (int w = 0; w < 4; ++w) {
    std::vector<int> ranks;
    for (sim::TaskId t : low.worker_recv_tasks[static_cast<std::size_t>(w)]) {
      const auto ti = static_cast<std::size_t>(t);
      EXPECT_EQ(low.tasks.gate_group[ti], w);
      EXPECT_NE(low.tasks.priority[ti], sim::kNoPriority);
      ranks.push_back(low.tasks.gate_rank[ti]);
    }
    std::sort(ranks.begin(), ranks.end());
    for (std::size_t i = 0; i < ranks.size(); ++i) {
      EXPECT_EQ(ranks[i], static_cast<int>(i));
    }
  }
  // Non-recv tasks are never gated.
  for (std::size_t t = 0; t < low.tasks.size(); ++t) {
    if (low.tasks.kind[t] != core::OpKind::kRecv) {
      EXPECT_EQ(low.tasks.gate_group[t], -1);
    }
  }
}

TEST(Lowering, TransfersLandOnCorrectChannels) {
  Fixture f;
  const Lowering low =
      LowerCluster(f.graph, core::Schedule(), f.ps_of, f.config);
  const int W = 4;
  const int S = 2;
  const sim::TaskGraph& tasks = low.tasks;
  for (std::size_t t = 0; t < tasks.size(); ++t) {
    const int worker = tasks.worker[t];
    if (tasks.kind[t] == core::OpKind::kRecv) {
      const int param = f.graph.op(tasks.op[t]).param;
      const int expected =
          W + worker * S + f.ps_of[static_cast<std::size_t>(param)];
      EXPECT_EQ(tasks.resource[t], expected);
    } else if (tasks.kind[t] == core::OpKind::kSend) {
      const int param = f.graph.op(tasks.op[t]).param;
      const int expected =
          W + W * S + worker * S + f.ps_of[static_cast<std::size_t>(param)];
      EXPECT_EQ(tasks.resource[t], expected);
    } else if (tasks.kind[t] == core::OpKind::kCompute) {
      EXPECT_EQ(tasks.resource[t], worker);
    } else {
      EXPECT_GE(tasks.resource[t], W + 2 * W * S);  // PS cpu
    }
  }
}

TEST(Lowering, TransferDurationsUseSharedNicBandwidth) {
  Fixture f;
  const Lowering low =
      LowerCluster(f.graph, core::Schedule(), f.ps_of, f.config);
  const auto& hw = f.config.platform;
  for (std::size_t t = 0; t < low.tasks.size(); ++t) {
    if (low.tasks.kind[t] != core::OpKind::kRecv) continue;
    const auto bytes = f.graph.op(low.tasks.op[t]).bytes;
    const double expected =
        hw.latency_s + static_cast<double>(bytes) * 4 / hw.bandwidth_bps;
    EXPECT_NEAR(low.tasks.duration[t], expected, 1e-12);
  }
}

TEST(Lowering, ValidatesCleanly) {
  for (const bool training : {false, true}) {
    Fixture f("ResNet-50 v2", training);
    for (const auto& method : {core::Schedule(), core::Tic(f.graph)}) {
      const Lowering low = LowerCluster(f.graph, method, f.ps_of, f.config);
      sim::TaskGraphSim sim = low.BuildSim();
      EXPECT_NO_THROW(sim.Validate());
    }
  }
}

TEST(Lowering, AggregateWaitsForAllWorkers) {
  Fixture f("AlexNet v2", /*training=*/true, /*workers=*/3, /*ps=*/1);
  const Lowering low =
      LowerCluster(f.graph, core::Schedule(), f.ps_of, f.config);
  int aggregates = 0;
  for (std::size_t t = 0; t < low.tasks.size(); ++t) {
    if (low.tasks.kind[t] == core::OpKind::kAggregate) {
      ++aggregates;
      EXPECT_EQ(low.tasks.preds(t).size(), 3u);  // one push per worker
    }
  }
  EXPECT_EQ(aggregates, f.info.num_params);
}

TEST(Lowering, RejectsBadInputs) {
  Fixture f;
  EXPECT_THROW(LowerCluster(f.graph, core::Schedule(), f.ps_of,
                            EnvG(0, 1, true)),
               std::invalid_argument);
  // Param index out of range in sharding map.
  std::vector<int> short_map(3, 0);
  EXPECT_THROW(
      LowerCluster(f.graph, core::Schedule(), short_map, f.config),
      std::invalid_argument);
}

// Lower's edge errors, each naming its cause.
TEST(Lower, RejectsEdgeInputsByName) {
  const auto expect_error = [](const std::vector<JobLoweringInput>& jobs,
                               int iterations, const std::string& named) {
    try {
      Lower(jobs, iterations);
      ADD_FAILURE() << "expected an error naming '" << named << "'";
    } catch (const std::invalid_argument& e) {
      EXPECT_NE(std::string(e.what()).find(named), std::string::npos)
          << e.what();
    }
  };
  const Runner runner(models::FindModel("Inception v1"), EnvG(2, 1, true));
  ClusterConfig ring = runner.config();
  ring.topology = Topology::kRing;
  const core::Schedule none;
  const JobLoweringInput ps_job{runner.worker_graph(), none,
                                runner.ps_of_param(), runner.config()};
  const JobLoweringInput ring_job{runner.worker_graph(), none,
                                  runner.ps_of_param(), ring};

  expect_error({}, 1, "lowering: Lower needs >= 1 job");
  expect_error({ps_job}, 0, "iterations must be >= 1");
  for (const std::vector<JobLoweringInput>& jobs :
       {std::vector<JobLoweringInput>{ps_job, ring_job},
        std::vector<JobLoweringInput>{ring_job, ps_job}}) {
    expect_error(jobs, 1, "ring collectives have no shared fabric to slice");
  }
  expect_error({ps_job, ps_job}, 2, "single-iteration modules");
  expect_error({ring_job}, 3,
               "the ring collective lowers one iteration, got iterations=3");
  // Each refused shape has a neighbour that lowers.
  EXPECT_EQ(Lower({ps_job, ps_job}).jobs.size(), 2u);
  EXPECT_EQ(Lower({ps_job}, 3).iterations, 3);
  EXPECT_EQ(Lower({ring_job}).num_ps, 0);
}

}  // namespace
}  // namespace tictac::runtime
