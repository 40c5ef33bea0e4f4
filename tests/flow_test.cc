// Flow-level max-min fairness differentials (DESIGN.md §11).
//
// The anchor: no flow network — a null or flow-less one — must be
// byte-for-byte identical to the static bandwidth/T split engine, across
// the model zoo, the scheduling policies, and the multi-job shared
// fabric. On top of that, the flow model's semantics are pinned on
// hand-built graphs where the max-min allocation is computable by hand:
// a lone flow takes the whole link, a fully-loaded link reproduces the
// static split exactly, and a departure hands the idle share to the
// survivors mid-flight.
#include "sim/flow.h"

#include <gtest/gtest.h>

#include <stdexcept>
#include <string>
#include <vector>

#include "runtime/multijob.h"
#include "runtime/spec.h"
#include "sim/engine.h"

namespace tictac {
namespace {

void ExpectSameResult(const sim::SimResult& a, const sim::SimResult& b) {
  EXPECT_EQ(a.makespan, b.makespan);
  EXPECT_EQ(a.start, b.start);
  EXPECT_EQ(a.end, b.end);
  EXPECT_EQ(a.start_order, b.start_order);
}

sim::Task FlowTask(double duration, int resource,
                   std::vector<sim::TaskId> preds = {}) {
  sim::Task t;
  t.duration = duration;
  t.resource = resource;
  t.preds = std::move(preds);
  return t;
}

sim::TaskGraphSim FlowSim(const std::vector<sim::Task>& tasks,
                          int num_resources) {
  return sim::TaskGraphSim(sim::TaskGraph(tasks), num_resources);
}

runtime::MultiJobRunner MakeRunner(const std::string& cluster,
                                   const std::string& model,
                                   const std::string& policy) {
  runtime::MultiJobSpec spec;
  runtime::MultiJobEntry entry;
  entry.spec = runtime::ExperimentSpec::Parse(
      cluster + " model=" + model + " policy=" + policy +
      " iterations=2 seed=3");
  spec.jobs.push_back(entry);
  return runtime::MultiJobRunner(std::move(spec));
}

// A two-channel shared link at twice the per-channel nominal rate: the
// static split gives each channel 50 B/s of the 100 B/s link.
sim::FlowNetwork TwoChannelLink() {
  sim::FlowNetwork net;
  net.links = {{100.0}};
  net.resource_links = {{0}, {0}};
  net.resource_nominal_bps = {50.0, 50.0};
  return net;
}

TEST(FlowModel, NullNetworkIsBitIdenticalToTheStaticSplit) {
  for (const char* model : {"AlexNet v2", "Inception v2"}) {
    for (const char* policy : {"baseline", "tic", "tac"}) {
      SCOPED_TRACE(std::string(model) + " / " + policy);
      // Same jobs, lowered twice: once with the flow network attached
      // (":flow") and once without. The tasks are identical — the pass
      // only attaches capacities — so running the flow lowering without
      // its network must reproduce the legacy lowering exactly.
      runtime::MultiJobRunner with_net =
          MakeRunner("envG:workers=4:ps=2:training:flow", model, policy);
      runtime::MultiJobRunner legacy =
          MakeRunner("envG:workers=4:ps=2:training", model, policy);
      ASSERT_NE(with_net.fabric().options.network, nullptr);
      ASSERT_EQ(legacy.fabric().options.network, nullptr);

      const sim::TaskGraphSim sim = with_net.fabric().lowering.BuildSim();
      const sim::TaskGraphSim legacy_sim =
          legacy.fabric().lowering.BuildSim();
      const sim::SimResult reference =
          legacy_sim.Run(legacy.fabric().options, 42);

      sim::SimOptions on_null_net = with_net.fabric().options;
      on_null_net.network = nullptr;
      ExpectSameResult(sim.Run(on_null_net, 42), reference);
    }
  }
}

TEST(FlowModel, MultiJobFlowOffMatchesLegacyByteForByte) {
  const auto make = [](bool flow) {
    runtime::MultiJobSpec spec;
    const std::string cluster =
        flow ? "envG:workers=2:ps=2:training:flow"
             : "envG:workers=2:ps=2:training";
    for (const char* model : {"AlexNet v2", "Inception v2"}) {
      runtime::MultiJobEntry entry;
      entry.spec = runtime::ExperimentSpec::Parse(
          cluster + " model=" + std::string(model) +
          " policy=tac iterations=2 seed=3");
      spec.jobs.push_back(entry);
    }
    return runtime::MultiJobRunner(std::move(spec));
  };
  const runtime::MultiJobRunner with_net = make(true);
  const runtime::MultiJobRunner legacy = make(false);
  const sim::TaskGraphSim sim = with_net.fabric().lowering.BuildSim();
  const sim::TaskGraphSim legacy_sim = legacy.fabric().lowering.BuildSim();
  sim::SimOptions off = with_net.fabric().options;
  off.network = nullptr;
  for (const std::uint64_t seed : {1ull, 7ull}) {
    ExpectSameResult(sim.Run(off, seed),
                     legacy_sim.Run(legacy.fabric().options, seed));
  }
}

TEST(FlowModel, SingleActiveFlowTakesTheWholeLink) {
  const sim::FlowNetwork net = TwoChannelLink();
  const sim::TaskGraphSim sim = FlowSim({FlowTask(1.0, 0)}, 2);
  sim::SimOptions options;
  options.network = &net;
  const sim::SimResult r = sim.Run(options, 1);
  // Alone on the 100 B/s link, the 50 B/s-nominal channel runs at rate
  // 2.0: the 1 s task finishes in 0.5 s.
  EXPECT_DOUBLE_EQ(r.end[0], 0.5);
  EXPECT_DOUBLE_EQ(r.makespan, 0.5);
}

TEST(FlowModel, FullyLoadedLinkReproducesTheStaticSplit) {
  const sim::FlowNetwork net = TwoChannelLink();
  const std::vector<sim::Task> tasks{FlowTask(1.0, 0), FlowTask(2.0, 1)};
  sim::TaskGraphSim sim(sim::TaskGraph(tasks), 2);
  sim::SimOptions on;
  on.network = &net;
  // Both channels active from t = 0: each gets its 50 B/s nominal share
  // while the other runs... but the 1 s flow finishes first and frees
  // its share, so only the fully-overlapped prefix matches the split.
  const sim::SimResult r = sim.Run(on, 1);
  EXPECT_DOUBLE_EQ(r.end[0], 1.0);  // contended the whole way: unchanged
  // Task 1: 1 s at rate 1 (1.0 of 2.0 done), then alone at rate 2 for
  // the remaining 1.0 -> finishes at 1.5 instead of the static 2.0.
  EXPECT_DOUBLE_EQ(r.end[1], 1.5);

  // With both flows pinned for their whole lifetime (equal durations),
  // flow on is byte-for-byte the static split.
  const sim::TaskGraphSim pinned =
      FlowSim({FlowTask(1.0, 0), FlowTask(1.0, 1)}, 2);
  sim::SimOptions off;
  ExpectSameResult(pinned.Run(on, 5), pinned.Run(off, 5));
}

TEST(FlowModel, DepartureHandsIdleShareToSurvivorMidFlight) {
  const sim::FlowNetwork net = TwoChannelLink();
  // Task 1 depends on nothing but lives longer; after task 0 departs at
  // t = 1 the survivor's rate doubles mid-transfer.
  const sim::TaskGraphSim sim =
      FlowSim({FlowTask(1.0, 0), FlowTask(3.0, 1)}, 2);
  sim::SimOptions options;
  options.network = &net;
  const sim::SimResult r = sim.Run(options, 1);
  EXPECT_DOUBLE_EQ(r.end[0], 1.0);
  // 1 s at rate 1 leaves 2.0 nominal seconds; at rate 2 that is 1 s of
  // wall clock: end = 2.0, not the static 3.0.
  EXPECT_DOUBLE_EQ(r.end[1], 2.0);
}

// Flow completions are not queued with fixed-duration tasks, but they
// keep the queue's order: at equal times the smaller task id completes
// first, whether each of the two is a flow or not. Resources 0 and 1
// are flows alone on their own link (rate exactly 1.0), resource 2 is
// not a flow resource, and the two successors share resource 3, so
// whichever completion is handled first starts its successor first.
TEST(FlowModel, SimultaneousCompletionsGoInTaskIdOrder) {
  sim::FlowNetwork net;
  net.links = {{50.0}, {50.0}};
  net.resource_links = {{0}, {1}};
  net.resource_nominal_bps = {50.0, 50.0};
  sim::SimOptions options;
  options.network = &net;
  for (const auto& [first, second] :
       {std::pair{0, 2}, std::pair{2, 0}, std::pair{0, 1}}) {
    const sim::TaskGraphSim sim = FlowSim(
        {FlowTask(1.0, first), FlowTask(1.0, second), FlowTask(0.5, 3, {0}),
         FlowTask(0.5, 3, {1})},
        4);
    const sim::SimResult r = sim.Run(options, 1);
    SCOPED_TRACE("resources " + std::to_string(first) + ", " +
                 std::to_string(second));
    EXPECT_EQ(r.end[0], 1.0);
    EXPECT_EQ(r.end[1], 1.0);
    EXPECT_EQ(r.start[2], 1.0);
    EXPECT_EQ(r.start[3], 1.5);
  }
}

TEST(FlowModel, OversubscribedCoreSlowsCrossPodTransfers) {
  const auto mean_iteration = [](const std::string& cluster) {
    return MakeRunner(cluster, "AlexNet v2", "tac")
        .Run(2, 7)
        .combined.MeanIterationTime();
  };
  // Pin jitter/ooo to zero so the three runs differ only in the network
  // model, never in random draws.
  const std::string base = "envG:workers=4:ps=2:training:jitter=0:ooo=0";
  const double static_split = mean_iteration(base);
  const double nic_only = mean_iteration(base + ":flow");
  const double oversubscribed =
      mean_iteration(base + ":flow:pods=2:oversub=64");
  // Without an oversubscribed core the flow model can only hand out idle
  // bandwidth: never slower than the static split.
  EXPECT_LE(nic_only, static_split + 1e-9);
  // A 64:1 core chokes every cross-pod transfer well below its nominal
  // rate.
  EXPECT_GT(oversubscribed, nic_only);
}

TEST(FlowNetwork, ValidateNamesTheOffendingEntry) {
  const auto expect_throw = [](const sim::FlowNetwork& net, int resources,
                               const std::string& fragment) {
    try {
      net.Validate(resources);
      FAIL() << "expected invalid_argument containing '" << fragment << "'";
    } catch (const std::invalid_argument& e) {
      EXPECT_NE(std::string(e.what()).find(fragment), std::string::npos)
          << "message was: " << e.what();
    }
  };
  sim::FlowNetwork bad_link = TwoChannelLink();
  bad_link.resource_links[0] = {3};
  expect_throw(bad_link, 2, "link");

  sim::FlowNetwork bad_capacity = TwoChannelLink();
  bad_capacity.links[0].capacity_bps = 0.0;
  expect_throw(bad_capacity, 2, "capacity");

  // A repeated link would be counted twice by the water-fill.
  sim::FlowNetwork repeated_link = TwoChannelLink();
  repeated_link.resource_links[1] = {0, 0};
  expect_throw(repeated_link, 2, "resource 1 lists link 0 twice");

  sim::FlowNetwork bad_nominal = TwoChannelLink();
  bad_nominal.resource_nominal_bps[1] = 0.0;
  expect_throw(bad_nominal, 2, "nominal");

  sim::FlowNetwork too_wide = TwoChannelLink();
  expect_throw(too_wide, 1, "resource");
}

TEST(FlowModel, RingTopologyRejectsFlowFairness) {
  try {
    runtime::ExperimentSpec::Parse(
        "envG:workers=4:ps=1:training:topology=ring:flow model=AlexNet v2");
    FAIL() << "expected the ring + flow combination to be rejected";
  } catch (const std::invalid_argument& e) {
    EXPECT_NE(std::string(e.what()).find("flow"), std::string::npos)
        << "message was: " << e.what();
  }
}

}  // namespace
}  // namespace tictac
