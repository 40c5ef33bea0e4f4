// Cluster-sweep contracts (runtime/clustersweep.h, DESIGN.md §11).
//
// A sweep partitions its jobs over K fabrics and simulates each fabric
// on its own engine with its own random stream, so the report is
// IDENTICAL at every thread count, a lone fabric reproduces the
// MultiJobRunner exactly, and adding a fabric leaves the others' bits
// alone. The engine the fabrics run on is held to its result invariants
// (sim_invariants.h) and to a power-of-two time-scaling relation.
#include <bit>
#include <cmath>
#include <cstdint>
#include <stdexcept>
#include <string>
#include <vector>

#include <gtest/gtest.h>

#include "runtime/clustersweep.h"
#include "runtime/multijob.h"
#include "sim/engine.h"
#include "sim/task.h"

#include "sim_invariants.h"

namespace tictac {
namespace {

void ExpectSameBits(const runtime::IterationStats& a,
                    const runtime::IterationStats& b) {
  const auto bits = [](double v) { return std::bit_cast<std::uint64_t>(v); };
  EXPECT_EQ(bits(a.makespan), bits(b.makespan));
  EXPECT_EQ(bits(a.straggler_pct), bits(b.straggler_pct));
  EXPECT_EQ(bits(a.mean_efficiency), bits(b.mean_efficiency));
  EXPECT_EQ(bits(a.overlap_fraction), bits(b.overlap_fraction));
  ASSERT_EQ(a.worker_finish.size(), b.worker_finish.size());
  for (std::size_t w = 0; w < a.worker_finish.size(); ++w) {
    EXPECT_EQ(bits(a.worker_finish[w]), bits(b.worker_finish[w]));
  }
  EXPECT_EQ(a.recv_order, b.recv_order);
}

// Metamorphic: six jobs on two fabrics, then the same six with three
// more on a third fabric. Fabric f draws from its own stream whatever
// the fabric count (K >= 2), so the first six jobs' per-iteration
// statistics stay bit-identical, at any thread count, with flow links or
// without. Going from one fabric to two switches fabric 0 from the
// single-fabric seed to its stream, and appending *before* the others
// renumbers them: both change the draws until each fabric's stream
// derives from its own content (ROADMAP item 6).
TEST(ClusterSweep, AddingAFabricLeavesTheOthersBitIdentical) {
  for (const std::string flow : {"", ":flow:pods=2:oversub=2"}) {
    const std::string cluster =
        "envG:workers=2:ps=1:training:jitter=0.2:ooo=0.1" + flow;
    const auto job = [&cluster](const std::string& rest) {
      return "{" + cluster + " " + rest + " iterations=2 seed=21}";
    };
    const std::string six =
        "2x" + job("model=AlexNet v2 policy=tac") + " " +
        job("model=Inception v2 policy=tic") + " " +
        job("model=ResNet-50 v2 policy=baseline") + " " +
        job("model=AlexNet v2 policy=tic") + "@0.004 " +
        job("model=AlexNet v2 policy=tac");
    const std::string nine =
        six + " 3x" + job("model=Inception v2 policy=tac");
    for (const int threads : {1, 4}) {
      SCOPED_TRACE(std::string(flow.empty() ? "static" : "flow") +
                   ", threads=" + std::to_string(threads));
      const auto run = [threads](const std::string& text, int fabrics) {
        return runtime::ClusterSweep(
                   runtime::ParseJobGroups(text, 64),
                   {.fabrics = fabrics, .num_threads = threads})
            .Run();
      };
      const runtime::ClusterSweepResult before = run(six, 2);
      const runtime::ClusterSweepResult after = run(nine, 3);
      ASSERT_EQ(before.job_results.size(), 6u);
      ASSERT_EQ(after.job_results.size(), 9u);
      for (std::size_t j = 0; j < 6; ++j) {
        SCOPED_TRACE("job " + std::to_string(j));
        const auto& want = before.job_results[j].iterations;
        const auto& got = after.job_results[j].iterations;
        ASSERT_EQ(got.size(), want.size());
        for (std::size_t i = 0; i < want.size(); ++i) {
          ExpectSameBits(got[i], want[i]);
        }
      }
    }
  }
}

// Metamorphic: multiplying every task duration by 2^k multiplies every
// start, end and the makespan by exactly 2^k and leaves start_order as it
// is. A power-of-two factor commutes with every rounding the engine does
// (a jitter draw's product, a sum of times, a comparison), and the
// random draws do not depend on the times, so the scaled run is the same
// run on a finer or coarser clock. With flow links the capacities stay
// put: each flow's demand (duration x nominal rate) scales by 2^k, its
// water-filled rate does not, so its remaining bytes and finish times
// scale by 2^k too.
TEST(FabricRun, ScalingEveryDurationByAPowerOfTwoScalesEveryTime) {
  const std::string cluster = "envG:workers=2:ps=1:training:flow";
  const runtime::MultiJobRunner runner(runtime::MultiJobSpec::Parse(
      "{" + cluster + " model=AlexNet v2 policy=tac iterations=1 seed=1} {" +
      cluster + " model=Inception v2 policy=tic iterations=1 seed=1} {" +
      cluster + " model=ResNet-50 v2 policy=baseline iterations=1 seed=1}"));
  const runtime::Lowering& lowering = runner.fabric().lowering;
  ASSERT_NE(lowering.flow, nullptr);
  const sim::TaskGraphSim base_sim = lowering.BuildSim();

  sim::SimOptions options;
  options.enforce_gates = true;
  options.jitter_sigma = 0.1;
  options.out_of_order_probability = 0.05;
  for (const int k : {-3, 5}) {
    sim::TaskGraph scaled = lowering.tasks;
    for (double& d : scaled.duration) d = std::ldexp(d, k);
    const sim::TaskGraphSim scaled_sim(scaled, lowering.num_resources);
    for (const bool flow : {false, true}) {
      SCOPED_TRACE("k=" + std::to_string(k) + (flow ? ", flow" : ""));
      options.network = flow ? lowering.flow.get() : nullptr;
      const sim::SimResult base = base_sim.Run(options, 5);
      const sim::SimResult got = scaled_sim.Run(options, 5);
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

TEST(ClusterSweep, RejectsFabricsThatDisagreeOnJitter) {
  // Each fabric agrees with itself, but fabric 1 jitters differently
  // from fabric 0.
  try {
    runtime::ClusterSweep sweep(
        runtime::ParseJobGroups(
            "{envG:workers=2:ps=1:training model=AlexNet v2 policy=tac "
            "iterations=1 seed=1} {envG:workers=2:ps=1:training:jitter=0.2 "
            "model=AlexNet v2 policy=tac iterations=1 seed=1}",
            64),
        {.fabrics = 2});
    FAIL() << "expected fabrics with different jitter= to be rejected";
  } catch (const std::invalid_argument& e) {
    EXPECT_EQ(std::string(e.what()),
              "clustersweep: fabric 1 overrides jitter=/ooo= differently "
              "from fabric 0 — simulation options are global to a run");
  }
}

}  // namespace
}  // namespace tictac
