#include <gtest/gtest.h>

#include <algorithm>
#include <vector>

#include "core/tic.h"
#include "models/builder.h"
#include "models/zoo.h"
#include "runtime/lowering.h"
#include "runtime/sharding.h"

namespace tictac::runtime {
namespace {

struct Fixture {
  explicit Fixture(bool training = true, int workers = 2, int ps = 1)
      : info(models::FindModel("Inception v1")),
        config(EnvG(workers, ps, training)),
        graph(models::BuildWorkerGraph(info, {.training = training})),
        ps_of(ShardParams(models::ParamSizes(info), ps)) {
    config.sim.jitter_sigma = 0.0;
    config.sim.out_of_order_probability = 0.0;
  }

  const models::ModelInfo& info;
  ClusterConfig config;
  core::Graph graph;
  std::vector<int> ps_of;
};

TEST(Pipeline, TaskCountsScaleWithIterations) {
  Fixture f;
  const auto once = LowerCluster(f.graph, core::Schedule(), f.ps_of, f.config);
  const auto pipe =
      Lower({{f.graph, core::Schedule(), f.ps_of, f.config}}, 4);
  EXPECT_EQ(pipe.tasks.size(), once.tasks.size() * 4);
  EXPECT_EQ(pipe.task_iteration.size(), pipe.tasks.size());
  EXPECT_EQ(pipe.iterations, 4);
  sim::TaskGraphSim sim = pipe.BuildSim();
  EXPECT_NO_THROW(sim.Validate());
}

TEST(Pipeline, SingleIterationMatchesLowerCluster) {
  Fixture f;
  const auto once = LowerCluster(f.graph, core::Schedule(), f.ps_of, f.config);
  const auto pipe =
      Lower({{f.graph, core::Schedule(), f.ps_of, f.config}}, 1);
  sim::TaskGraphSim a(once.tasks, once.num_resources);
  sim::TaskGraphSim b(pipe.tasks, pipe.num_resources);
  EXPECT_EQ(a.Run(f.config.sim, 5).makespan, b.Run(f.config.sim, 5).makespan);
}

TEST(Pipeline, SteadyStateBeatsColdIterationTraining) {
  // Pipelining overlaps iteration k+1's pulls with iteration k's tail, so
  // the steady-state per-iteration time must be below the cold first
  // iteration.
  Fixture f(/*training=*/true);
  const core::Schedule tic = core::Tic(f.graph);
  const auto pipe = Lower({{f.graph, tic, f.ps_of, f.config}}, 6);
  sim::TaskGraphSim sim = pipe.BuildSim();
  sim::SimOptions options = f.config.sim;
  options.enforce_gates = true;
  const auto timing = ComputePipelineTiming(pipe, sim.Run(options, 1));
  EXPECT_LT(timing.steady_state, timing.first_iteration);
  EXPECT_GT(timing.steady_state, 0.0);
}

TEST(Pipeline, IterationFinishTimesMonotone) {
  Fixture f;
  const auto pipe =
      Lower({{f.graph, core::Schedule(), f.ps_of, f.config}}, 5);
  sim::TaskGraphSim sim = pipe.BuildSim();
  const auto timing = ComputePipelineTiming(pipe, sim.Run(f.config.sim, 2));
  ASSERT_EQ(timing.iteration_finish.size(), 5u);
  for (std::size_t k = 1; k < timing.iteration_finish.size(); ++k) {
    EXPECT_GT(timing.iteration_finish[k], timing.iteration_finish[k - 1]);
  }
}

TEST(Pipeline, TrainingIterationsRespectUpdateDependency) {
  // Without cross-iteration dependencies two iterations could fully
  // overlap; with them, total time must exceed a single iteration's by a
  // non-trivial margin.
  Fixture f(/*training=*/true);
  const auto one = Lower({{f.graph, core::Schedule(), f.ps_of, f.config}}, 1);
  const auto two = Lower({{f.graph, core::Schedule(), f.ps_of, f.config}}, 2);
  sim::TaskGraphSim sim1 = one.BuildSim();
  sim::TaskGraphSim sim2 = two.BuildSim();
  const double t1 = sim1.Run(f.config.sim, 3).makespan;
  const double t2 = sim2.Run(f.config.sim, 3).makespan;
  EXPECT_GT(t2, t1 * 1.3);
  EXPECT_LT(t2, t1 * 2.1);
}

TEST(Pipeline, InferenceServingLoopSerializesPerWorker) {
  Fixture f(/*training=*/false);
  const auto pipe =
      Lower({{f.graph, core::Schedule(), f.ps_of, f.config}}, 3);
  sim::TaskGraphSim sim = pipe.BuildSim();
  const sim::SimResult result = sim.Run(f.config.sim, 7);
  const auto timing = ComputePipelineTiming(pipe, result);
  // Three serving steps cannot be faster than one (per-worker serial
  // forward passes), nor slower than three cold steps.
  EXPECT_GT(timing.iteration_finish.back(), timing.first_iteration * 1.5);
  EXPECT_LE(timing.iteration_finish.back(), timing.first_iteration * 3.001);
}

TEST(Pipeline, GateGroupsAreDistinctPerIteration) {
  Fixture f;
  const core::Schedule tic = core::Tic(f.graph);
  const auto pipe = Lower({{f.graph, tic, f.ps_of, f.config}}, 3);
  const std::vector<int>& groups = pipe.tasks.gate_group;
  // 3 iterations x 2 workers -> groups 0..5.
  EXPECT_EQ(*std::max_element(groups.begin(), groups.end()), 5);
}

TEST(Pipeline, RejectsZeroIterations) {
  Fixture f;
  EXPECT_THROW(
      Lower({{f.graph, core::Schedule(), f.ps_of, f.config}}, 0),
      std::invalid_argument);
}

}  // namespace
}  // namespace tictac::runtime
