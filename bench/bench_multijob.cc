// Multi-job shared-cluster interference (DESIGN.md §6): two co-located
// ResNet-101 training jobs contending for one 2-server PS fabric, per
// scheduling policy. The timed loop measures the contended simulation
// through runtime::MultiJobRunner; the interference counters —
// per-policy mean/max slowdown vs isolated runs and the Jain fairness of
// the contention outcome — ride along into BENCH_sched.json via
// bench/run_benches.sh, so policy changes that shift how contention is
// absorbed show up in the archived perf trajectory.
#include <benchmark/benchmark.h>

#include <string>

#include "harness/session.h"
#include "runtime/multijob.h"

namespace {

void BM_MultiJobContended(benchmark::State& state, const char* policy) {
  const auto spec = tictac::runtime::MultiJobSpec::Parse(
      "2x{envG:workers=4:ps=2:training model=ResNet-101 v1 policy=" +
      std::string(policy) + " iterations=4 seed=3}");
  // One runner serves both the interference report (isolated references
  // included) and the timed loop; only the contended simulation is
  // timed.
  const tictac::runtime::MultiJobRunner runner(spec);
  tictac::harness::Session session;
  const tictac::harness::MultiJobReport report = session.RunMultiJob(runner);
  for (auto _ : state) {
    benchmark::DoNotOptimize(runner.Run());
  }
  state.counters["mean_slowdown"] = report.interference.mean_slowdown;
  state.counters["max_slowdown"] = report.interference.max_slowdown;
  state.counters["fairness"] = report.interference.fairness;
  state.counters["combined_iter_ms"] =
      report.result.combined.MeanIterationTime() * 1e3;
  const tictac::runtime::Lowering& lowering = runner.fabric().lowering;
  state.SetLabel(std::to_string(spec.jobs.size()) + " jobs, " +
                 std::to_string(lowering.num_workers) + " workers, " +
                 std::to_string(lowering.tasks.size()) + " tasks");
}

BENCHMARK_CAPTURE(BM_MultiJobContended, baseline, "baseline")
    ->Unit(benchmark::kMillisecond);
BENCHMARK_CAPTURE(BM_MultiJobContended, tic, "tic")
    ->Unit(benchmark::kMillisecond);
BENCHMARK_CAPTURE(BM_MultiJobContended, tac, "tac")
    ->Unit(benchmark::kMillisecond);

// Mixed workload: a training job sharing the PS fleet with an inference
// job that arrives 50 ms late — the serving-alongside-training scenario.
void BM_MultiJobMixed(benchmark::State& state, const char* policy) {
  const auto spec = tictac::runtime::MultiJobSpec::Parse(
      "{envG:workers=4:ps=2:training model=Inception v3 policy=" +
      std::string(policy) +
      " iterations=4 seed=3} {envG:workers=2:ps=2:inference "
      "model=Inception v3 policy=" +
      std::string(policy) + " iterations=4 seed=3}@0.05");
  const tictac::runtime::MultiJobRunner runner(spec);
  tictac::harness::Session session;
  const tictac::harness::MultiJobReport report = session.RunMultiJob(runner);
  for (auto _ : state) {
    benchmark::DoNotOptimize(runner.Run());
  }
  state.counters["mean_slowdown"] = report.interference.mean_slowdown;
  state.counters["fairness"] = report.interference.fairness;
  state.SetLabel("training + offset inference, " +
                 std::to_string(runner.fabric().lowering.tasks.size()) +
                 " tasks");
}

BENCHMARK_CAPTURE(BM_MultiJobMixed, baseline, "baseline")
    ->Unit(benchmark::kMillisecond);
BENCHMARK_CAPTURE(BM_MultiJobMixed, tac, "tac")
    ->Unit(benchmark::kMillisecond);

}  // namespace

BENCHMARK_MAIN();
