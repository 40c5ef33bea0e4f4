// Differential testing: the event-driven engine vs the naive reference
// executor. On deterministic inputs (unique priorities per resource, no
// gates, no jitter) both must agree exactly. The wide cases spread a few
// busy resources over 64-512 mostly idle ones, so each event wakes only
// a handful of resources: the engine's dispatch must still start exactly
// what the reference's scan of every resource starts.
#include <gtest/gtest.h>

#include <numeric>

#include "sim/engine.h"
#include "sim/reference.h"
#include "util/rng.h"

namespace tictac::sim {
namespace {

// Tasks land on `used_resources` resources spaced `stride` apart, each
// at the top of its stride (the last one is resource used * stride - 1).
std::vector<Task> RandomTaskGraph(std::uint64_t seed, int num_tasks,
                                  int used_resources, int stride = 1) {
  util::Rng rng(seed);
  std::vector<Task> tasks(static_cast<std::size_t>(num_tasks));
  // Unique global priorities remove all tie-break freedom.
  std::vector<int> priorities(static_cast<std::size_t>(num_tasks));
  std::iota(priorities.begin(), priorities.end(), 0);
  rng.Shuffle(priorities);
  for (int t = 0; t < num_tasks; ++t) {
    Task& task = tasks[static_cast<std::size_t>(t)];
    task.duration = rng.Uniform(0.05, 2.0);
    task.resource = stride * static_cast<int>(rng.Index(
                                 static_cast<std::size_t>(used_resources))) +
                    stride - 1;
    task.priority = priorities[static_cast<std::size_t>(t)];
    // Edges only from earlier tasks: acyclic by construction.
    const int preds = static_cast<int>(rng.Index(3));
    for (int p = 0; p < preds && t > 0; ++p) {
      task.preds.push_back(static_cast<TaskId>(
          rng.Index(static_cast<std::size_t>(t))));
    }
  }
  return tasks;
}

struct SweepCase {
  std::uint64_t seed;
  int num_resources;
  int used_resources;  // spaced evenly over [0, num_resources)
  int num_tasks;
};

std::vector<SweepCase> SweepCases() {
  std::vector<SweepCase> cases;
  for (std::uint64_t seed = 0; seed < 30; ++seed) {
    const int resources = 2 + static_cast<int>(seed % 4);
    cases.push_back({seed, resources, resources,
                     20 + static_cast<int>(seed % 30)});
  }
  for (const int resources : {64, 128, 256, 512}) {
    for (std::uint64_t seed = 100; seed < 103; ++seed) {
      cases.push_back({seed + static_cast<std::uint64_t>(resources), resources,
                       2 + static_cast<int>(seed % 7), 120});
    }
  }
  return cases;
}

class DifferentialSweep : public ::testing::TestWithParam<SweepCase> {};

TEST_P(DifferentialSweep, EngineMatchesReferenceExactly) {
  const auto [seed, num_resources, used_resources, num_tasks] = GetParam();
  const std::vector<Task> tasks = RandomTaskGraph(
      seed, num_tasks, used_resources, num_resources / used_resources);

  TaskGraphSim engine(TaskGraph(tasks), num_resources);
  engine.Validate();
  SimOptions options;  // no jitter, no reordering
  const SimResult a = engine.Run(options, /*seed=*/1);
  const SimResult b = ReferenceRun(tasks, num_resources);

  ASSERT_EQ(a.start.size(), b.start.size());
  EXPECT_NEAR(a.makespan, b.makespan, 1e-9) << "seed " << seed;
  for (std::size_t t = 0; t < tasks.size(); ++t) {
    EXPECT_NEAR(a.start[t], b.start[t], 1e-9)
        << "task " << t << " seed " << seed;
    EXPECT_NEAR(a.end[t], b.end[t], 1e-9)
        << "task " << t << " seed " << seed;
  }
}

INSTANTIATE_TEST_SUITE_P(Seeds, DifferentialSweep,
                         ::testing::ValuesIn(SweepCases()));

TEST(ReferenceRun, HandlesUnprioritizedTasks) {
  std::vector<Task> tasks(2);
  tasks[0].duration = 1.0;
  tasks[0].resource = 0;
  tasks[0].priority = 5;
  tasks[1].duration = 1.0;
  tasks[1].resource = 0;  // no priority: must run after the numbered one
  const SimResult r = ReferenceRun(tasks, 1);
  EXPECT_LT(r.start[0], r.start[1]);
  EXPECT_DOUBLE_EQ(r.makespan, 2.0);
}

TEST(ReferenceRun, RespectsDependenciesAcrossResources) {
  std::vector<Task> tasks(3);
  tasks[0].duration = 1.0;
  tasks[0].resource = 0;
  tasks[1].duration = 2.0;
  tasks[1].resource = 1;
  tasks[1].preds = {0};
  tasks[2].duration = 0.5;
  tasks[2].resource = 0;
  tasks[2].preds = {1};
  const SimResult r = ReferenceRun(tasks, 2);
  EXPECT_DOUBLE_EQ(r.start[1], 1.0);
  EXPECT_DOUBLE_EQ(r.start[2], 3.0);
  EXPECT_DOUBLE_EQ(r.makespan, 3.5);
}

}  // namespace
}  // namespace tictac::sim
