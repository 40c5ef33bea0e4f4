// Sharded event engine differentials (sim/parallel.cc, DESIGN.md §11).
//
// The contract under test: RunParallel partitions the graph into
// independent components (dependency edges, shared resources, shared
// gate groups, shared flow links), advances each on its own thread with
// the per-component random stream util::Rng::StreamSeed(seed, c), and
// merges — and the result is IDENTICAL at every thread count, including
// 1, where single-component graphs delegate to Run() outright. The
// manual-shard tests re-derive a component's subgraph by hand (local ids
// in global order, dense resource remap, remapped fault timeline) and
// check the merged result against running that subgraph alone. Every
// run must also hold the result invariants (sim_invariants.h).
#include <algorithm>
#include <cmath>
#include <cstdint>
#include <span>
#include <stdexcept>
#include <string>
#include <vector>

#include <gtest/gtest.h>

#include "runtime/clustersweep.h"
#include "runtime/multijob.h"
#include "sim/engine.h"
#include "sim/flow.h"
#include "sim/task.h"
#include "util/rng.h"

#include "sim_invariants.h"

namespace tictac {
namespace {

sim::Task MakeTask(double duration, int resource,
                   std::vector<sim::TaskId> preds = {}, int priority = 0) {
  sim::Task t;
  t.duration = duration;
  t.resource = resource;
  t.preds = std::move(preds);
  t.priority = priority;
  return t;
}

void ExpectSameResult(const sim::SimResult& a, const sim::SimResult& b) {
  EXPECT_EQ(a.makespan, b.makespan);
  EXPECT_EQ(a.start, b.start);
  EXPECT_EQ(a.end, b.end);
  EXPECT_EQ(a.start_order, b.start_order);
}

TEST(ComponentOf, UnionsPredsResourcesAndGateGroups) {
  // Six tasks, three components: {0,1} share a dependency edge (distinct
  // resources), {2,3} share resource 2, {4,5} share gate group 0 on
  // distinct resources.
  std::vector<sim::Task> tasks;
  tasks.push_back(MakeTask(1.0, 0));
  tasks.push_back(MakeTask(1.0, 1, {0}));
  tasks.push_back(MakeTask(1.0, 2));
  tasks.push_back(MakeTask(1.0, 2));
  sim::Task g0 = MakeTask(1.0, 3);
  g0.gate_group = 0;
  g0.gate_rank = 0;
  sim::Task g1 = MakeTask(1.0, 4);
  g1.gate_group = 0;
  g1.gate_rank = 1;
  tasks.push_back(g0);
  tasks.push_back(g1);

  const sim::TaskGraphSim sim(sim::TaskGraph(tasks), 5);
  const std::vector<int> expected{0, 0, 1, 1, 2, 2};
  EXPECT_EQ(sim.ComponentOf(sim::SimOptions{}), expected);
}

TEST(ComponentOf, SharedFlowLinksMergeComponentsOnlyUnderANetwork) {
  // Two tasks on distinct resources that traverse the same link: two
  // components without the network (no link to share), one with it
  // (their rates are coupled through the shared capacity).
  const std::vector<sim::Task> tasks{MakeTask(1.0, 0), MakeTask(1.0, 1)};
  sim::FlowNetwork net;
  net.links = {{100.0}};
  net.resource_links = {{0}, {0}};
  net.resource_nominal_bps = {50.0, 50.0};

  const sim::TaskGraphSim sim(sim::TaskGraph(tasks), 2);
  EXPECT_EQ(sim.ComponentOf(sim::SimOptions{}), (std::vector<int>{0, 1}));

  sim::SimOptions on;
  on.network = &net;
  EXPECT_EQ(sim.ComponentOf(on), (std::vector<int>{0, 0}));
}

TEST(RunParallel, SingleComponentDelegatesToTheSerialEngine) {
  // A diamond on one shared resource pool: one component, so any thread
  // count must be byte-identical to Run() (it literally delegates).
  std::vector<sim::Task> tasks;
  tasks.push_back(MakeTask(1.0, 0));
  tasks.push_back(MakeTask(2.0, 1, {0}));
  tasks.push_back(MakeTask(3.0, 0, {0}));
  tasks.push_back(MakeTask(1.0, 1, {1, 2}));
  const sim::TaskGraphSim sim(sim::TaskGraph(tasks), 2);
  sim::SimOptions options;
  options.jitter_sigma = 0.3;
  options.out_of_order_probability = 0.2;
  for (const int threads : {1, 2, 8}) {
    SCOPED_TRACE("threads=" + std::to_string(threads));
    const sim::SimResult r = sim.RunParallel(options, 11, threads);
    sim::ExpectSimInvariants(sim::TaskGraph(tasks), r);
    ExpectSameResult(r, sim.Run(options, 11));
  }
}

TEST(RunParallel, ThreadCountCannotChangeTheResult) {
  // Six disjoint gated chains with jitter and out-of-order draws — the
  // randomized paths — simulated at 1, 2 and 8 threads: all identical.
  std::vector<sim::Task> tasks;
  for (int c = 0; c < 6; ++c) {
    const int first = static_cast<int>(tasks.size());
    for (int i = 0; i < 4; ++i) {
      sim::Task t = MakeTask(0.5 + 0.25 * i, c,
                             i == 0 ? std::vector<sim::TaskId>{}
                                    : std::vector<sim::TaskId>{
                                          static_cast<sim::TaskId>(
                                              first + i - 1)},
                             i);
      t.gate_group = c;
      t.gate_rank = i;
      tasks.push_back(t);
    }
  }
  const sim::TaskGraphSim sim(sim::TaskGraph(tasks), 6);
  sim::SimOptions options;
  options.enforce_gates = true;
  options.jitter_sigma = 0.2;
  options.out_of_order_probability = 0.3;
  const sim::SimResult one = sim.RunParallel(options, 17, 1);
  sim::ExpectSimInvariants(sim::TaskGraph(tasks), one);
  for (const int threads : {2, 8}) {
    SCOPED_TRACE("threads=" + std::to_string(threads));
    ExpectSameResult(sim.RunParallel(options, 17, threads), one);
  }
  // A partition computed once and handed in gives the same result; one
  // that does not cover the graph is refused.
  const std::vector<int> component = sim.ComponentOf(options);
  ExpectSameResult(sim.RunParallel(options, 17, 2, component), one);
  EXPECT_THROW(sim.RunParallel(options, 17, 2,
                               std::span<const int>(component).first(3)),
               std::invalid_argument);
}

TEST(RunParallel, ShardRunsMatchManualComponentRuns) {
  // Components interleaved by task id — component 0 owns tasks {0, 2} on
  // resource 0, component 1 owns {1, 3} on resource 1 — so the test
  // exercises the dense local remaps, not just contiguous slicing.
  std::vector<sim::Task> tasks;
  tasks.push_back(MakeTask(1.0, 0));
  tasks.push_back(MakeTask(2.0, 1));
  tasks.push_back(MakeTask(0.5, 0, {0}));
  tasks.push_back(MakeTask(0.25, 1, {1}));
  const sim::TaskGraphSim sim(sim::TaskGraph(tasks), 2);
  sim::SimOptions options;
  options.jitter_sigma = 0.4;

  const sim::SimResult merged = sim.RunParallel(options, 9, 2);
  sim::ExpectSimInvariants(sim::TaskGraph(tasks), merged);

  // Component c's subgraph: local ids in increasing global order, the
  // component's resources remapped dense in first-use order, stream seed
  // StreamSeed(seed, c) — the protocol sim/parallel.cc documents.
  for (int c = 0; c < 2; ++c) {
    SCOPED_TRACE("component=" + std::to_string(c));
    const std::vector<sim::TaskId> members{static_cast<sim::TaskId>(c),
                                           static_cast<sim::TaskId>(c + 2)};
    std::vector<sim::Task> local;
    for (const sim::TaskId g : members) {
      sim::Task t = tasks[static_cast<std::size_t>(g)];
      t.resource = 0;  // each component touches exactly one resource
      for (sim::TaskId& pred : t.preds) pred = pred == c ? 0 : 1;
      local.push_back(t);
    }
    const sim::TaskGraphSim shard(sim::TaskGraph(local), 1);
    const sim::SimResult alone =
        shard.Run(options, util::Rng::StreamSeed(9, static_cast<std::uint64_t>(c)));
    for (std::size_t i = 0; i < members.size(); ++i) {
      const auto g = static_cast<std::size_t>(members[i]);
      EXPECT_EQ(merged.start[g], alone.start[i]);
      EXPECT_EQ(merged.end[g], alone.end[i]);
    }
  }
}

TEST(RunParallel, FaultTimelinesApplyPerShardIdentically) {
  // Two components, each with a fault on its own resource: the sharded
  // engine filters and remaps the timeline per shard. Thread counts must
  // agree with each other AND with the hand-built shard run.
  std::vector<sim::Task> tasks;
  tasks.push_back(MakeTask(1.0, 0));
  tasks.push_back(MakeTask(1.0, 0, {0}));
  tasks.push_back(MakeTask(1.0, 1));
  tasks.push_back(MakeTask(1.0, 1, {2}));
  const std::vector<sim::ResourceFault> faults{
      {0.5, 0, 0.25},  // resource 0 slows to quarter speed at t=0.5
      {0.5, 1, 2.0},   // resource 1 doubles at t=0.5
  };
  const sim::TaskGraphSim sim(sim::TaskGraph(tasks), 2);
  sim::SimOptions options;
  options.faults = &faults;

  const sim::SimResult one = sim.RunParallel(options, 3, 1);
  sim::ExpectSimInvariants(sim::TaskGraph(tasks), one);
  ExpectSameResult(sim.RunParallel(options, 3, 4), one);
  // Task 1 starts at t=1 under speed 0.25: duration 4, end 5. Task 3
  // starts at t=1 under speed 2: end 1.5.
  EXPECT_DOUBLE_EQ(one.end[1], 5.0);
  EXPECT_DOUBLE_EQ(one.end[3], 1.5);

  // Manual shard for component 1 ({2, 3} on resource 1): the fault's
  // resource id remaps with the dense resource remap.
  std::vector<sim::Task> local{MakeTask(1.0, 0), MakeTask(1.0, 0, {0})};
  const std::vector<sim::ResourceFault> local_faults{{0.5, 0, 2.0}};
  sim::SimOptions local_options;
  local_options.faults = &local_faults;
  const sim::TaskGraphSim shard(sim::TaskGraph(local), 1);
  const sim::SimResult alone =
      shard.Run(local_options, util::Rng::StreamSeed(3, 1));
  EXPECT_EQ(one.start[2], alone.start[0]);
  EXPECT_EQ(one.end[3], alone.end[1]);
}

// Lowered fabrics side by side: each one's tasks, resources, gate groups
// and flow links rebased past those before it, so each is its own
// component.
struct SideBySide {
  sim::TaskGraph tasks;
  int resources = 0;
  int gate_groups = 0;
  sim::FlowNetwork net;

  void Append(const runtime::Lowering& low) {
    int groups = 0;
    for (const int g : low.tasks.gate_group) groups = std::max(groups, g + 1);
    tasks.Append(low.tasks, resources, gate_groups, 0);
    const int link_base = static_cast<int>(net.links.size());
    net.links.insert(net.links.end(), low.flow->links.begin(),
                     low.flow->links.end());
    net.resource_links.resize(static_cast<std::size_t>(resources));
    net.resource_nominal_bps.resize(static_cast<std::size_t>(resources));
    for (std::size_t r = 0; r < low.flow->resource_links.size(); ++r) {
      std::vector<int>& links =
          net.resource_links.emplace_back(low.flow->resource_links[r]);
      for (int& l : links) l += link_base;
      net.resource_nominal_bps.push_back(low.flow->resource_nominal_bps[r]);
    }
    resources += low.num_resources;
    gate_groups += groups;
  }
};

runtime::Lowering FlowFabric(const std::string& job) {
  return runtime::MultiJobRunner(
             runtime::MultiJobSpec::Parse(
                 "{envG:workers=2:ps=1:training:flow " + job +
                 " iterations=1 seed=1}"))
      .fabric()
      .lowering;
}

// Metamorphic: a disjoint component appended after a graph that already
// has two leaves every original task's start and end bit-identical, at
// any thread count, with flow links or without. Components keep their
// ids (numbered by smallest task id), so each keeps its random stream.
// Appending *before* the graph renumbers the components, and going from
// one component to two switches RunParallel from Run()'s stream to the
// per-component StreamSeed: both change the draws until each component's
// stream derives from its own content (ROADMAP item 6).
TEST(RunParallel, AppendingADisjointComponentLeavesTheOthersBitIdentical) {
  SideBySide base;
  base.Append(FlowFabric("model=AlexNet v2 policy=tac"));
  base.Append(FlowFabric("model=Inception v2 policy=tic"));
  SideBySide extended = base;
  extended.Append(FlowFabric("model=ResNet-50 v2 policy=baseline"));
  const sim::TaskGraphSim base_sim(base.tasks, base.resources);
  const sim::TaskGraphSim extended_sim(extended.tasks, extended.resources);

  sim::SimOptions options;
  options.enforce_gates = true;
  options.jitter_sigma = 0.2;
  options.out_of_order_probability = 0.1;
  for (const bool flow : {false, true}) {
    sim::SimOptions base_options = options;
    sim::SimOptions extended_options = options;
    if (flow) {
      base_options.network = &base.net;
      extended_options.network = &extended.net;
    }
    const std::vector<int> components = extended_sim.ComponentOf(
        extended_options);
    ASSERT_EQ(*std::max_element(components.begin(), components.end()), 2);
    for (const int threads : {1, 4}) {
      SCOPED_TRACE(std::string(flow ? "flow" : "static") +
                   ", threads=" + std::to_string(threads));
      const sim::SimResult before =
          base_sim.RunParallel(base_options, 21, threads);
      const sim::SimResult after =
          extended_sim.RunParallel(extended_options, 21, threads);
      sim::ExpectSimInvariants(base.tasks, before);
      sim::ExpectSimInvariants(extended.tasks, after);
      for (std::size_t t = 0; t < base.tasks.size(); ++t) {
        ASSERT_EQ(before.start[t], after.start[t]) << "task " << t;
        ASSERT_EQ(before.end[t], after.end[t]) << "task " << t;
      }
    }
  }
}

// Metamorphic: multiplying every task duration by 2^k multiplies every
// start, end and the makespan by exactly 2^k and leaves start_order as it
// is, serial or sharded, at any thread count. A power-of-two factor
// commutes with every rounding the engine does (a jitter draw's product,
// a sum of times, a comparison), and the random draws do not depend on
// the times, so the scaled run is the same run on a finer or coarser
// clock. With flow links the capacities stay put: each flow's demand
// (duration x nominal rate) scales by 2^k, its water-filled rate does
// not, so its remaining bytes and finish times scale by 2^k too.
TEST(RunParallel, ScalingEveryDurationByAPowerOfTwoScalesEveryTime) {
  SideBySide fabric;
  fabric.Append(FlowFabric("model=AlexNet v2 policy=tac"));
  fabric.Append(FlowFabric("model=Inception v2 policy=tic"));
  fabric.Append(FlowFabric("model=ResNet-50 v2 policy=baseline"));
  const sim::TaskGraphSim base_sim(fabric.tasks, fabric.resources);

  sim::SimOptions options;
  options.enforce_gates = true;
  options.jitter_sigma = 0.1;
  options.out_of_order_probability = 0.05;
  for (const int k : {-3, 5}) {
    sim::TaskGraph scaled = fabric.tasks;
    for (double& d : scaled.duration) d = std::ldexp(d, k);
    const sim::TaskGraphSim scaled_sim(scaled, fabric.resources);
    for (const bool flow : {false, true}) {
      options.network = flow ? &fabric.net : nullptr;
      for (const int threads : {0, 1, 4}) {  // 0: the serial Run
        SCOPED_TRACE("k=" + std::to_string(k) + (flow ? ", flow" : "") +
                     ", threads=" + std::to_string(threads));
        const auto run = [&](const sim::TaskGraphSim& sim) {
          return threads == 0 ? sim.Run(options, 5)
                              : sim.RunParallel(options, 5, threads);
        };
        const sim::SimResult base = run(base_sim);
        const sim::SimResult got = run(scaled_sim);
        sim::ExpectSimInvariants(scaled, got);
        EXPECT_EQ(got.makespan, std::ldexp(base.makespan, k));
        EXPECT_EQ(got.start_order, base.start_order);
        for (std::size_t t = 0; t < scaled.size(); ++t) {
          ASSERT_EQ(got.start[t], std::ldexp(base.start[t], k)) << t;
          ASSERT_EQ(got.end[t], std::ldexp(base.end[t], k)) << t;
        }
      }
    }
  }
}

TEST(ClusterSweep, SingleFabricMatchesTheMultiJobRunner) {
  // Three jobs on one fabric: the sweep's per-job means must equal the
  // MultiJobRunner's own slices exactly (same lowering, same engine).
  const std::string text =
      "2x{envG:workers=2:ps=1:training model=AlexNet v2 policy=tac "
      "iterations=2 seed=5} {envG:workers=2:ps=1:training model=AlexNet v2 "
      "policy=baseline iterations=2 seed=5}";
  std::vector<runtime::MultiJobEntry> jobs =
      runtime::ParseJobGroups(text, 4096);
  ASSERT_EQ(jobs.size(), 3u);

  runtime::MultiJobSpec spec;
  spec.jobs = jobs;
  const runtime::MultiJobRunner runner(std::move(spec));
  const runtime::MultiJobResult reference = runner.Run();

  runtime::ClusterSweepOptions options;
  options.fabrics = 1;
  const runtime::ClusterSweep sweep(std::move(jobs), options);
  EXPECT_EQ(sweep.num_jobs(), 3);
  EXPECT_EQ(sweep.num_fabrics(), 1);
  const runtime::ClusterSweepResult result = sweep.Run();

  ASSERT_EQ(result.job_mean_iteration_s.size(), 3u);
  for (std::size_t j = 0; j < 3; ++j) {
    EXPECT_EQ(result.job_mean_iteration_s[j],
              reference.jobs[j].MeanIterationTime())
        << "job " << j;
  }
}

TEST(ClusterSweep, ThreadCountCannotChangeTheReport) {
  const std::string text =
      "8x{envG:workers=2:ps=1:training model=AlexNet v2 policy=tac "
      "iterations=2 seed=4}";
  const auto run = [&text](int threads) {
    runtime::ClusterSweepOptions options;
    options.fabrics = 2;
    options.num_threads = threads;
    return runtime::ClusterSweep(runtime::ParseJobGroups(text, 4096), options)
        .Run()
        .ToJson();
  };
  EXPECT_EQ(run(1), run(3));
}

TEST(ClusterSweep, RejectsOverfullOrUnderfilledPartitions) {
  const auto parse_n = [](int n) {
    return runtime::ParseJobGroups(
        std::to_string(n) +
            "x{envG:workers=2:ps=1:training model=AlexNet v2 policy=tac "
            "iterations=1 seed=1}",
        4096);
  };
  {
    runtime::ClusterSweepOptions options;
    options.fabrics = 5;
    try {
      runtime::ClusterSweep sweep(parse_n(3), options);
      FAIL() << "expected fabrics > jobs to be rejected";
    } catch (const std::invalid_argument& e) {
      EXPECT_NE(std::string(e.what()).find("more fabrics"), std::string::npos)
          << "message was: " << e.what();
    }
  }
  {
    // 70 jobs forced onto one fabric: over the 64-job cap. Rejected by
    // partition arithmetic BEFORE any runner is constructed, so the
    // error is instant and names the fix.
    runtime::ClusterSweepOptions options;
    options.fabrics = 1;
    try {
      runtime::ClusterSweep sweep(parse_n(70), options);
      FAIL() << "expected the per-fabric cap to reject 70 jobs on 1 fabric";
    } catch (const std::invalid_argument& e) {
      const std::string what = e.what();
      EXPECT_NE(what.find("per-fabric cap"), std::string::npos)
          << "message was: " << what;
      EXPECT_NE(what.find("use at least 2 fabrics"), std::string::npos)
          << "message was: " << what;
    }
  }
}

}  // namespace
}  // namespace tictac
