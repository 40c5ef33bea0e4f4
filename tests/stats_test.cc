// Tests for the runner's derived statistics: overlap fraction, the
// hardware-straggler injection knob, ComputeIterationStats' two
// interval paths (the walk over a time-ordered start_order and the sort
// it falls back to), for a whole lowering and for shifted job slices,
// and the identities the RunIterations loop relies on.
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
  const Lowering& lowering = runner.fabric().lowering;
  const sim::TaskGraphSim sim = lowering.BuildSim();
  for (std::uint64_t seed = 1; seed <= 8; ++seed) {
    const sim::SimResult run = sim.Run(runner.fabric().options, seed);
    const std::vector<IterationStats> expected =
        ComputeIterationStats(lowering, run, lowering.jobs);
    ASSERT_EQ(expected.size(), 2u);
    sim::SimResult reversed = run;
    std::reverse(reversed.start_order.begin(), reversed.start_order.end());
    const std::vector<IterationStats> got =
        ComputeIterationStats(lowering, reversed, lowering.jobs);
    for (std::size_t j = 0; j < expected.size(); ++j) {
      ExpectSameBits(got[j], expected[j]);
    }
  }
}

// Every caller of RunIterations reads the statistics of the one
// 2-arg ComputeIterationStats call per run: RunSharedFabric's whole-fabric
// `combined` row takes it on its own, apart from the job slices (an
// offset job would shift a whole-fabric slice's intervals), and a
// one-job lowering's slice is the whole lowering, so Runner::Run's
// per-slice rows give its bits too, ring included.
TEST(IterationStats, RunIterationsRowsAreTheWholeLoweringStats) {
  constexpr int kIterations = 3;
  constexpr std::uint64_t kSeed = 11;
  const auto whole_stats = [&](const Lowering& lowering,
                               const sim::SimOptions& options) {
    const sim::TaskGraphSim sim = lowering.BuildSim();
    std::vector<IterationStats> out;
    for (int i = 0; i < kIterations; ++i) {
      out.push_back(ComputeIterationStats(
          lowering, sim.Run(options, kSeed + static_cast<std::uint64_t>(i))));
    }
    return out;
  };
  const auto expect_rows = [](const ExperimentResult& got,
                              const std::vector<IterationStats>& want) {
    ASSERT_EQ(got.iterations.size(), want.size());
    for (std::size_t i = 0; i < want.size(); ++i) {
      ExpectSameBits(got.iterations[i], want[i]);
    }
  };

  // The 3-job offset fabric.
  const MultiJobRunner fabric(MultiJobSpec::Parse(
      "{envG:workers=2:ps=2:training:jitter=0.2 model=Inception v1 "
      "policy=tac iterations=1 seed=5} {envG:workers=3:ps=2:training:"
      "jitter=0.2 model=AlexNet v2 policy=baseline iterations=1 "
      "seed=5}@0.05 {envG:workers=2:ps=2:inference:jitter=0.2 "
      "model=Inception v2 policy=tic iterations=1 seed=5}"));
  ASSERT_EQ(fabric.fabric().lowering.jobs.size(), 3u);
  expect_rows(fabric.Run(kIterations, kSeed).combined,
              whole_stats(fabric.fabric().lowering, fabric.fabric().options));

  // One job, on the PS fabric and on the ring: Runner::Run's rows and
  // RunIterations' whole-lowering rows.
  for (const Topology topology : {Topology::kPsFabric, Topology::kRing}) {
    ClusterConfig config = EnvG(3, 2, true);
    config.topology = topology;
    config.sim.jitter_sigma = 0.2;
    const Runner runner(models::FindModel("Inception v1"), config);
    const core::Schedule schedule = topology == Topology::kRing
                                        ? core::Schedule{}
                                        : runner.MakeSchedule("tic");
    const Lowering lowering = LowerCluster(
        runner.worker_graph(), schedule, runner.ps_of_param(), config);
    ASSERT_EQ(lowering.jobs.size(), 1u);
    sim::SimOptions options = config.sim;
    options.enforce_gates =
        schedule.size() == runner.worker_graph().size() &&
        schedule.CoversAllRecvs(runner.worker_graph());
    const std::vector<IterationStats> want = whole_stats(lowering, options);
    expect_rows(runner.Run("tic", kIterations, kSeed), want);
    expect_rows(RunIterations(lowering, options, kIterations, kSeed,
                              /*whole=*/true)
                    .combined,
                want);
  }
}

}  // namespace
}  // namespace tictac::runtime
