// Scheduling-computation overhead (§6 reports ~10 s offline per model for
// the Python implementation; the heuristics are computed once before
// training, so this is not on the iteration critical path). Measures TIC
// and TAC end-to-end: dependency analysis + priority assignment.
//
// The synthetic BM_TacSynthetic cases (1k/5k/10k recvs, far beyond any
// zoo model) make the old-O(R²·V)-vs-incremental gap visible at the
// production graph scales the ROADMAP targets; BM_TacFullRecompute pins
// the reference implementation's cost for the before/after comparison
// (only at sizes where it finishes in reasonable time).
// BM_SessionSweep pins the wall-clock of a representative experiment
// grid through harness::Session's sweep executor, serial (Arg = 1) vs
// one thread per core — the headline win of the declarative API is that
// Figure-7-style sweeps saturate the machine. BM_SimRun times the
// discrete-event engine on one fixed task graph spread over 8, 64 or 512
// resources: the events are the same at every width, so per-task time
// against resource count shows what a dispatch costs beyond the
// resources an event touches. BM_SimFlow times one Run of a 64-job
// flow-level fat-tree fabric (the shape of one cluster-512 fabric), where
// every flow start and finish re-solves the max-min water-fill.
#include <benchmark/benchmark.h>

#include <algorithm>
#include <cstdint>
#include <vector>

#include "core/policy_registry.h"
#include "core/properties.h"
#include "core/tac.h"
#include "core/tic.h"
#include "harness/session.h"
#include "models/builder.h"
#include "models/random_dag.h"
#include "models/zoo.h"
#include "runtime/multijob.h"
#include "sim/engine.h"
#include "util/rng.h"

namespace {

using tictac::core::AnalyticalTimeOracle;
using tictac::core::PlatformModel;

tictac::core::Graph SyntheticDag(int num_recvs) {
  tictac::models::RandomDagOptions options;
  options.num_recvs = num_recvs;
  options.num_computes = 2 * num_recvs;
  options.num_layers = 8;
  options.edge_probability = 0.05;
  return tictac::models::MakeRandomDag(options, /*seed=*/7);
}

void BM_Tic(benchmark::State& state, const char* model) {
  const auto& info = tictac::models::FindModel(model);
  const auto graph =
      tictac::models::BuildWorkerGraph(info, {.training = true});
  for (auto _ : state) {
    benchmark::DoNotOptimize(tictac::core::Tic(graph));
  }
  state.SetLabel(std::to_string(graph.size()) + " ops");
}

void BM_Tac(benchmark::State& state, const char* model) {
  const auto& info = tictac::models::FindModel(model);
  const auto graph =
      tictac::models::BuildWorkerGraph(info, {.training = true});
  const AnalyticalTimeOracle oracle{PlatformModel{}};
  for (auto _ : state) {
    benchmark::DoNotOptimize(tictac::core::Tac(graph, oracle));
  }
  state.SetLabel(std::to_string(graph.size()) + " ops");
}

void BM_DependencyAnalysis(benchmark::State& state, const char* model) {
  const auto& info = tictac::models::FindModel(model);
  const auto graph =
      tictac::models::BuildWorkerGraph(info, {.training = true});
  for (auto _ : state) {
    benchmark::DoNotOptimize(tictac::core::PropertyIndex(graph));
  }
}

// Every built-in policy by spec, including the parse of the spec —
// bounds the cost of selecting a policy by name over calling Tic/Tac
// directly.
void BM_RegistryPolicy(benchmark::State& state, const char* spec) {
  const auto& info = tictac::models::FindModel("Inception v3");
  const auto graph =
      tictac::models::BuildWorkerGraph(info, {.training = true});
  const tictac::core::PropertyIndex index(graph);
  const AnalyticalTimeOracle oracle{PlatformModel{}};
  for (auto _ : state) {
    const auto policy = tictac::core::PolicyRegistry::Global().Create(spec);
    benchmark::DoNotOptimize(policy->Compute(index, oracle));
  }
  state.SetLabel(std::to_string(graph.size()) + " ops");
}

void BM_TacSynthetic(benchmark::State& state) {
  const auto graph = SyntheticDag(static_cast<int>(state.range(0)));
  const tictac::core::PropertyIndex index(graph);
  const AnalyticalTimeOracle oracle{PlatformModel{}};
  for (auto _ : state) {
    benchmark::DoNotOptimize(tictac::core::Tac(index, oracle));
  }
  state.SetLabel(std::to_string(graph.size()) + " ops");
}

void BM_TacFullRecompute(benchmark::State& state) {
  const auto graph = SyntheticDag(static_cast<int>(state.range(0)));
  const tictac::core::PropertyIndex index(graph);
  const AnalyticalTimeOracle oracle{PlatformModel{}};
  for (auto _ : state) {
    benchmark::DoNotOptimize(tictac::core::TacFullRecompute(index, oracle));
  }
  state.SetLabel(std::to_string(graph.size()) + " ops");
}

void BM_TacFullRecomputeModel(benchmark::State& state, const char* model) {
  const auto& info = tictac::models::FindModel(model);
  const auto graph =
      tictac::models::BuildWorkerGraph(info, {.training = true});
  const tictac::core::PropertyIndex index(graph);
  const AnalyticalTimeOracle oracle{PlatformModel{}};
  for (auto _ : state) {
    benchmark::DoNotOptimize(tictac::core::TacFullRecompute(index, oracle));
  }
  state.SetLabel(std::to_string(graph.size()) + " ops");
}

BENCHMARK_CAPTURE(BM_Tic, alexnet, "AlexNet v2");
BENCHMARK_CAPTURE(BM_Tic, inception_v3, "Inception v3");
BENCHMARK_CAPTURE(BM_Tic, resnet101_v2, "ResNet-101 v2");
BENCHMARK_CAPTURE(BM_Tac, alexnet, "AlexNet v2");
BENCHMARK_CAPTURE(BM_Tac, inception_v3, "Inception v3");
BENCHMARK_CAPTURE(BM_Tac, resnet101_v2, "ResNet-101 v2");
BENCHMARK_CAPTURE(BM_DependencyAnalysis, resnet101_v2, "ResNet-101 v2");
// 100000 recvs (~300k ops) is the ROADMAP's datacenter-graph scale; it
// exercises the block-pruned argmin and the common sink's lazily
// resolved floor. One Tac() took 1.2-1.4 s (4-vCPU VM, Release; 6.2-6.7 s
// when the sink's M was re-summed on every completion), and the whole
// process peaks at about 90 MiB RSS; CI runs it under a 2 GiB
// address-space limit.
BENCHMARK(BM_TacSynthetic)
    ->Arg(1000)
    ->Arg(5000)
    ->Arg(10000)
    ->Arg(100000)
    ->Unit(benchmark::kMillisecond);
// The reference is quadratic in recvs — 1k is already seconds; larger
// sizes are left to the incremental path only.
BENCHMARK(BM_TacFullRecompute)->Arg(1000)->Unit(benchmark::kMillisecond);
BENCHMARK_CAPTURE(BM_TacFullRecomputeModel, resnet101_v2, "ResNet-101 v2")
    ->Unit(benchmark::kMillisecond);
BENCHMARK_CAPTURE(BM_RegistryPolicy, tic, "tic");
BENCHMARK_CAPTURE(BM_RegistryPolicy, tac, "tac");
BENCHMARK_CAPTURE(BM_RegistryPolicy, reverse_tic, "reverse:tic");
BENCHMARK_CAPTURE(BM_RegistryPolicy, random, "random:99");

// 4096 tasks with unique priorities, up to two preds among the previous
// 64 tasks (a wide, pipelined DAG), assigned uniformly to the resources.
constexpr int kSimTasks = 4096;

std::vector<tictac::sim::Task> SimWorkload(int num_resources) {
  tictac::util::Rng rng(11);
  std::vector<tictac::sim::Task> tasks(kSimTasks);
  for (int t = 0; t < kSimTasks; ++t) {
    tictac::sim::Task& task = tasks[static_cast<std::size_t>(t)];
    task.duration = rng.Uniform(0.1, 1.0);
    task.resource = static_cast<int>(
        rng.Index(static_cast<std::size_t>(num_resources)));
    task.priority = t;
    for (int p = 0; p < 2 && t > 0; ++p) {
      task.preds.push_back(static_cast<tictac::sim::TaskId>(
          t - 1 - static_cast<int>(rng.Index(
                      static_cast<std::size_t>(std::min(t, 64))))));
    }
  }
  return tasks;
}

void BM_SimRun(benchmark::State& state) {
  const int resources = static_cast<int>(state.range(0));
  const tictac::sim::TaskGraphSim sim(
      tictac::sim::TaskGraph(SimWorkload(resources)), resources);
  const tictac::sim::SimOptions options;
  for (auto _ : state) {
    benchmark::DoNotOptimize(sim.Run(options, /*seed=*/1));
  }
  state.SetItemsProcessed(static_cast<std::int64_t>(state.iterations()) *
                          kSimTasks);
  state.SetLabel(std::to_string(kSimTasks) + " tasks");
}

BENCHMARK(BM_SimRun)->Arg(8)->Arg(64)->Arg(512)->Unit(benchmark::kMicrosecond);

void BM_SimFlow(benchmark::State& state) {
  const tictac::runtime::MultiJobRunner runner(
      tictac::runtime::MultiJobSpec::Parse(
          "64x{envG:workers=2:ps=1:training:flow:pods=2:oversub=2 "
          "model=VGG-16 policy=tac iterations=1 seed=1}"));
  const tictac::runtime::SharedFabric& fabric = runner.fabric();
  const tictac::sim::TaskGraphSim sim = fabric.lowering.BuildSim();
  for (auto _ : state) {
    benchmark::DoNotOptimize(sim.Run(fabric.options, /*seed=*/1));
  }
  state.SetItemsProcessed(static_cast<std::int64_t>(state.iterations()) *
                          static_cast<std::int64_t>(sim.num_tasks()));
  state.SetLabel(std::to_string(sim.num_tasks()) + " tasks");
}

BENCHMARK(BM_SimFlow)->Unit(benchmark::kMillisecond);

// End-to-end sweep wall-clock through the Session executor. A fresh
// Session per iteration makes every grid pay its dependency-analysis
// cost, as a cold CLI `tictac_cli sweep` invocation would; real time (not
// summed CPU time) is what the parallelism buys down.
void BM_SessionSweep(benchmark::State& state) {
  const int parallelism = static_cast<int>(state.range(0));
  const auto sweep = tictac::runtime::SweepSpec::Parse(
      "envG:workers=2,4:ps=1:task=inference,training "
      "models=AlexNet v2,Inception v2,ResNet-50 v2 "
      "policies=baseline,tic iterations=4 seed=3");
  for (auto _ : state) {
    tictac::harness::Session session;
    benchmark::DoNotOptimize(session.RunAll(sweep, parallelism));
  }
  state.SetLabel(std::to_string(sweep.size()) + " runs, parallelism " +
                 std::to_string(parallelism));
}

// Serial (Arg = 1), the 4-thread reference point the perf trajectory
// tracks, and one thread per core when that differs; the floor of 2
// keeps a distinct executor-overhead data point on single-core machines
// (where /4 measures overhead too — thread-scaling wins need >= 4
// physical cores).
void SweepArgs(benchmark::internal::Benchmark* bench) {
  const int parallel =
      std::max(2, tictac::harness::Session::DefaultParallelism());
  bench->Arg(1);
  if (parallel != 4) bench->Arg(parallel);
  bench->Arg(4)->Unit(benchmark::kMillisecond)->UseRealTime();
}

BENCHMARK(BM_SessionSweep)->Apply(SweepArgs);

}  // namespace

BENCHMARK_MAIN();
