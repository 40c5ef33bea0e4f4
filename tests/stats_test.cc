// Tests for the runner's derived statistics: overlap fraction, the
// hardware-straggler injection knob, and ComputeIterationStats' two
// interval paths (the walk over a time-ordered start_order and the sort
// it falls back to), for a whole lowering and for shifted job slices.
#include <gtest/gtest.h>

#include <algorithm>
#include <bit>
#include <cmath>
#include <cstdint>
#include <vector>

#include "models/zoo.h"
#include "runtime/lowering.h"
#include "runtime/multijob.h"
#include "runtime/runner.h"

namespace tictac::runtime {
namespace {

TEST(Overlap, InUnitInterval) {
  Runner runner(models::FindModel("Inception v1"), EnvG(2, 1, true));
  for (const char* policy : {"baseline", "tic"}) {
    const auto result = runner.Run(policy, 4, 3);
    for (const auto& it : result.iterations) {
      EXPECT_GE(it.overlap_fraction, 0.0);
      EXPECT_LE(it.overlap_fraction, 1.0 + 1e-9);
    }
  }
}

TEST(Overlap, SchedulingImprovesOverlap) {
  // The whole point of TicTac: better orders overlap communication with
  // computation.
  Runner runner(models::FindModel("Inception v2"), EnvG(4, 1, false));
  const auto base = runner.Run("baseline", 6, 5);
  const auto tic = runner.Run("tic", 6, 5);
  EXPECT_GT(tic.MeanOverlap(), base.MeanOverlap());
  EXPECT_GT(tic.MeanOverlap(), 0.5);
}

TEST(Stragglers, SlowWorkerDominatesIterationTime) {
  auto config = EnvG(4, 1, true);
  Runner uniform(models::FindModel("Inception v1"), config);
  config.worker_speed_factors = {1.0, 1.0, 1.0, 0.5};  // one 2x-slow worker
  Runner skewed(models::FindModel("Inception v1"), config);
  const auto fast = uniform.Run("tic", 4, 9);
  const auto slow = skewed.Run("tic", 4, 9);
  EXPECT_GT(slow.MeanIterationTime(), fast.MeanIterationTime() * 1.1);
  // The slow worker finishes last in (almost) every iteration.
  for (const auto& it : slow.iterations) {
    const auto slowest = std::max_element(it.worker_finish.begin(),
                                          it.worker_finish.end()) -
                         it.worker_finish.begin();
    EXPECT_EQ(slowest, 3);
  }
}

TEST(Stragglers, SchedulingCannotFixHardwareStragglers) {
  // Enforced ordering removes schedule-induced stragglers but a slow
  // device still drags the barrier: straggler% stays high under TIC.
  auto config = EnvG(4, 1, true);
  config.worker_speed_factors = {1.0, 1.0, 1.0, 0.6};
  Runner runner(models::FindModel("Inception v2"), config);
  const auto tic = runner.Run("tic", 5, 11);
  EXPECT_GT(tic.MeanStragglerPct(), 5.0);
}

TEST(Stragglers, RejectsNonPositiveSpeed) {
  // ClusterConfig::Validate rejects the config at Runner construction.
  auto config = EnvG(2, 1, true);
  config.worker_speed_factors = {1.0, 0.0};
  EXPECT_THROW(Runner(models::FindModel("AlexNet v2"), config),
               std::invalid_argument);
}

TEST(Stragglers, RejectsSpeedFactorCountMismatch) {
  auto config = EnvG(2, 1, true);
  config.worker_speed_factors = {1.0, 1.0, 1.0};  // 3 factors, 2 workers
  try {
    Runner runner(models::FindModel("AlexNet v2"), config);
    FAIL() << "expected std::invalid_argument";
  } catch (const std::invalid_argument& e) {
    EXPECT_NE(std::string(e.what()).find("worker_speed_factors"),
              std::string::npos);
  }
}

// ComputeIterationStats merges each worker's comm/comp intervals by
// walking SimResult::start_order when that order is non-decreasing in
// start time, and sorts them otherwise. Both paths must give the same
// bits, whatever order ties and unsorted inputs arrive in.

void ExpectSameBits(const IterationStats& a, const IterationStats& b) {
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

// A jittered, scheduled 4-worker Inception v1 iteration and its lowering.
struct LoweredRun {
  Lowering lowering;
  sim::SimResult run;
};

LoweredRun SimulatedIteration() {
  const Runner runner(models::FindModel("Inception v1"), EnvG(4, 2, true));
  const core::Schedule schedule = runner.MakeSchedule("tic");
  LoweredRun out;
  out.lowering = LowerCluster(runner.worker_graph(), schedule,
                              runner.ps_of_param(), runner.config());
  sim::SimOptions options = runner.config().sim;
  options.jitter_sigma = 0.1;
  out.run = out.lowering.BuildSim().Run(options, 5);
  return out;
}

TEST(IterationStats, UnsortedStartOrderFallsBackToTheSameBits) {
  const LoweredRun base = SimulatedIteration();
  const IterationStats expected =
      ComputeIterationStats(base.lowering, base.run);
  // A start_order that is not time-sorted, as a wall-clock backend that
  // records starts from several threads can emit.
  sim::SimResult reversed = base.run;
  std::reverse(reversed.start_order.begin(), reversed.start_order.end());
  ExpectSameBits(ComputeIterationStats(base.lowering, reversed), expected);
  // Id order: sorted by task, not by time.
  sim::SimResult by_id = base.run;
  std::sort(by_id.start_order.begin(), by_id.start_order.end());
  ExpectSameBits(ComputeIterationStats(base.lowering, by_id), expected);
  // A start_order that misses tasks (as a run whose resource stays down
  // leaves it) is not a full time-ordered walk either.
  sim::SimResult truncated = base.run;
  truncated.start_order.resize(truncated.start_order.size() / 2);
  ExpectSameBits(ComputeIterationStats(base.lowering, truncated), expected);
}

TEST(IterationStats, EqualStartTiesGiveTheSameBitsInAnyOrder) {
  // Quantize every time to a coarse grid so many tasks share a start
  // (and many intervals touch end to start), then present the ties in
  // ascending, descending and fully unsorted order.
  LoweredRun base = SimulatedIteration();
  const double grid = base.run.makespan / 16.0;
  for (std::size_t t = 0; t < base.run.start.size(); ++t) {
    const double start = std::floor(base.run.start[t] / grid) * grid;
    const double end = std::max(start, std::ceil(base.run.end[t] / grid) * grid);
    base.run.start[t] = start;
    base.run.end[t] = end;
  }
  const auto by_start_then = [&](bool ascending_ids) {
    sim::SimResult r = base.run;
    std::stable_sort(r.start_order.begin(), r.start_order.end(),
                     [&](sim::TaskId a, sim::TaskId b) {
                       const double sa = r.start[static_cast<std::size_t>(a)];
                       const double sb = r.start[static_cast<std::size_t>(b)];
                       if (sa != sb) return sa < sb;
                       return ascending_ids ? a < b : a > b;
                     });
    return r;
  };
  const IterationStats ascending =
      ComputeIterationStats(base.lowering, by_start_then(true));
  ExpectSameBits(ComputeIterationStats(base.lowering, by_start_then(false)),
                 ascending);
  sim::SimResult unsorted = base.run;
  std::reverse(unsorted.start_order.begin(), unsorted.start_order.end());
  ExpectSameBits(ComputeIterationStats(base.lowering, unsorted), ascending);
  EXPECT_GT(ascending.overlap_fraction, 0.0);
}

// Per-job slices on their own clocks take the same fallback: the sort
// sees the same shifted intervals the walk places. (Shifting moves the
// overlap's last bits on some of these seeds, so an unshifted sort would
// show.)
TEST(IterationStats, JobSlicesFallBackToTheSameBits) {
  const MultiJobRunner runner(MultiJobSpec::Parse(
      "{envG:workers=2:ps=2:training:jitter=0.3:ooo=0.05 model=Inception v1 "
      "policy=tac iterations=1 seed=5} {envG:workers=3:ps=2:training:"
      "jitter=0.3:ooo=0.05 model=AlexNet v2 policy=tic iterations=1 "
      "seed=5}@0.05"));
  const MultiJobLowering& lowering = runner.fabric().lowering;
  const sim::TaskGraphSim sim = lowering.combined.BuildSim();
  for (std::uint64_t seed = 1; seed <= 8; ++seed) {
    const sim::SimResult run = sim.Run(runner.fabric().options, seed);
    const std::vector<IterationStats> expected =
        ComputeIterationStats(lowering.combined, run, lowering.jobs);
    ASSERT_EQ(expected.size(), 2u);
    sim::SimResult reversed = run;
    std::reverse(reversed.start_order.begin(), reversed.start_order.end());
    const std::vector<IterationStats> got =
        ComputeIterationStats(lowering.combined, reversed, lowering.jobs);
    for (std::size_t j = 0; j < expected.size(); ++j) {
      ExpectSameBits(got[j], expected[j]);
    }
  }
}

}  // namespace
}  // namespace tictac::runtime
