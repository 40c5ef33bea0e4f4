// Lowering-path cost (DESIGN.md §10): the pass-based pipeline over the
// flat ir::Module for one job and for a shared fabric, plus the engine
// build every lowered graph pays and the PropertyIndex build the
// scheduling passes pay. DESIGN.md §10 keeps the last timings of the
// deleted pre-IR lowering as the yardstick for these rows. The
// module's size — nodes and CSR pred-list entries — rides along into
// BENCH_sched.json via bench/run_benches.sh, so a layout change shows up
// in the archived perf trajectory next to its runtime cost.
#include <benchmark/benchmark.h>

#include <string>
#include <vector>

#include "core/properties.h"
#include "ir/lower.h"
#include "ir/passes.h"
#include "models/zoo.h"
#include "runtime/lowering.h"
#include "runtime/runner.h"

namespace {

using tictac::runtime::EnvG;
using tictac::runtime::Runner;

// One representative contended cluster: ResNet-101 training on 4 workers
// x 2 PS with a TIC schedule — the bench_multijob workload's single-job
// half, so numbers line up across suites.
struct Workload {
  Workload()
      : runner(tictac::models::FindModel("ResNet-101 v1"), EnvG(4, 2, true)),
        schedule(runner.MakeSchedule("tic")) {}
  Runner runner;
  tictac::core::Schedule schedule;
};

Workload& SharedWorkload() {
  static Workload workload;
  return workload;
}

void BM_LowerClusterPipeline(benchmark::State& state) {
  Workload& w = SharedWorkload();
  for (auto _ : state) {
    benchmark::DoNotOptimize(tictac::runtime::LowerCluster(
        w.runner.worker_graph(), w.schedule, w.runner.ps_of_param(),
        w.runner.config()));
  }
  // The footprint of the same lowering, as counters: nodes and the
  // entries of their CSR preds.
  std::vector<tictac::runtime::JobLoweringInput> jobs;
  jobs.push_back({w.runner.worker_graph(), w.schedule,
                  w.runner.ps_of_param(), w.runner.config()});
  const tictac::ir::Module module = tictac::ir::RunLoweringPasses(
      tictac::ir::BuildLogicalModule(jobs),
      tictac::runtime::Topology::kPsFabric);
  state.counters["nodes"] = static_cast<double>(module.size());
  state.counters["pred_entries"] =
      static_cast<double>(module.graph().pred_ids.size());
  state.SetLabel("ir::RunLoweringPasses over the flat module");
}
BENCHMARK(BM_LowerClusterPipeline)->Unit(benchmark::kMillisecond);

// The engine build the simulator pays per lowered graph: the same
// lowering's task graph, copied into a TaskGraphSim (plus the succ CSR,
// priority ranks and gate slots it derives).
void BM_BuildSim(benchmark::State& state) {
  Workload& w = SharedWorkload();
  const tictac::runtime::Lowering lowering = tictac::runtime::LowerCluster(
      w.runner.worker_graph(), w.schedule, w.runner.ps_of_param(),
      w.runner.config());
  for (auto _ : state) {
    benchmark::DoNotOptimize(lowering.BuildSim());
  }
  state.counters["tasks"] = static_cast<double>(lowering.tasks.size());
}
BENCHMARK(BM_BuildSim)->Unit(benchmark::kMillisecond);

// The dependency-analysis cost every schedule computation pays before
// any lowering: dominating-set and dependency bitsets over the worker
// partition.
void BM_PropertyIndexBuild(benchmark::State& state) {
  Workload& w = SharedWorkload();
  for (auto _ : state) {
    benchmark::DoNotOptimize(
        tictac::core::PropertyIndex(w.runner.worker_graph()));
  }
  state.counters["ops"] =
      static_cast<double>(w.runner.worker_graph().size());
}
BENCHMARK(BM_PropertyIndexBuild)->Unit(benchmark::kMillisecond);

// The multi-job composition: three jobs merged onto one shared fabric
// through the pass order expand_replicas, lower_ps_fabric, merge_jobs,
// apply_arrival_offsets.
void BM_SharedClusterPipeline(benchmark::State& state) {
  Workload& w = SharedWorkload();
  std::vector<tictac::runtime::JobLoweringInput> jobs;
  for (int j = 0; j < 3; ++j) {
    jobs.push_back({w.runner.worker_graph(), w.schedule,
                    w.runner.ps_of_param(), w.runner.config(),
                    j == 2 ? 0.05 : 0.0});
  }
  for (auto _ : state) {
    benchmark::DoNotOptimize(tictac::runtime::Lower(jobs));
  }
}
BENCHMARK(BM_SharedClusterPipeline)->Unit(benchmark::kMillisecond);

}  // namespace

BENCHMARK_MAIN();
