// Datacenter-scale contended sweep (runtime/clustersweep.h, DESIGN.md
// §11): N identical jobs partitioned over ceil(N/64) PS fabrics, each
// simulated on its own engine, the fabrics in parallel on all cores. The
// 1000-job case is the ROADMAP's "out of reach for the single-threaded
// engine" scale; its wall-clock plus the population SLO counters (p99
// job iteration, Jain fairness) land in BENCH_sched.json next to the
// per-fabric BM_MultiJob* rows.
//
// Construction (partitioning, one Runner and schedule shared through the
// sweep's RunnerCache, every fabric's lowering) happens once per
// benchmark, outside the timed loop — the timed region is one full
// simulated iteration of every job in the cluster, the quantity running
// the fabrics in parallel buys down.
#include <benchmark/benchmark.h>

#include <string>

#include "runtime/clustersweep.h"
#include "runtime/multijob.h"

namespace {

void BM_ClusterSweep(benchmark::State& state) {
  const int jobs = static_cast<int>(state.range(0));
  const std::string text =
      std::to_string(jobs) +
      "x{envG:workers=2:ps=1:training model=AlexNet v2 policy=tac "
      "iterations=1 seed=1}";
  const tictac::runtime::ClusterSweep sweep(
      tictac::runtime::ParseJobGroups(text, 4096), {});

  tictac::runtime::ClusterSweepResult result;
  for (auto _ : state) {
    result = sweep.Run(/*iterations=*/1, /*seed=*/1);
    benchmark::DoNotOptimize(result);
  }
  state.counters["fabrics"] = result.fabrics;
  state.counters["components"] = result.components;
  state.counters["p99_job_iteration_s"] = result.p99_job_iteration_s;
  state.counters["fairness"] = result.fairness;
  state.counters["total_throughput"] = result.total_throughput;
  state.SetLabel(std::to_string(result.jobs) + " jobs / " +
                 std::to_string(result.fabrics) + " fabrics");
}

BENCHMARK(BM_ClusterSweep)
    ->Arg(100)
    ->Arg(1000)
    ->Unit(benchmark::kMillisecond)
    ->UseRealTime();

}  // namespace

BENCHMARK_MAIN();
