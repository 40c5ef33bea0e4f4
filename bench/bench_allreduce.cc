// Extension (paper §7 future work): Parameter Server with TicTac
// scheduling vs decentralized ring all-reduce, the aggregation pattern
// the paper explicitly leaves out of scope (§2). Shows where each
// aggregation strategy wins at equal hardware.
#include <iostream>

#include "harness/session.h"
#include "models/builder.h"
#include "models/zoo.h"
#include "runtime/lowering.h"
#include "util/table.h"

using namespace tictac;

namespace {

double AllReduceThroughput(const models::ModelInfo& info,
                           runtime::ClusterConfig config, std::uint64_t seed) {
  const core::Graph graph =
      models::BuildWorkerGraph(info, {.training = true});
  config.topology = runtime::Topology::kRing;
  const auto lowering = runtime::LowerCluster(graph, {}, {}, config);
  sim::TaskGraphSim sim = lowering.BuildSim();
  double total = 0.0;
  constexpr int kIters = 10;
  for (int i = 0; i < kIters; ++i) {
    total += sim.Run(config.sim, seed + static_cast<std::uint64_t>(i)).makespan;
  }
  return info.standard_batch * config.num_workers / (total / kIters);
}

}  // namespace

int main() {
  std::cout << "Extension: PS (baseline / TIC) vs ring all-reduce, "
               "training throughput in samples/s (envG, 8 workers, 2 PS)\n\n";
  util::Table table({"Model", "PS baseline", "PS + TIC", "Ring all-reduce",
                     "TIC vs all-reduce"});
  // The PS side is one declarative sweep; the ring all-reduce comparator
  // has no PS/policy notion, so it stays on the custom lowering below.
  runtime::SweepSpec sweep;
  sweep.models = {"Inception v1", "Inception v3", "ResNet-50 v2", "VGG-16"};
  sweep.workers = {8};
  sweep.ps = {2};
  sweep.tasks = {true};
  sweep.policies = {"baseline", "tic"};
  sweep.seed = 17;
  harness::Session session;
  const harness::ResultTable results =
      session.RunAll(sweep, harness::Session::DefaultParallelism());
  for (std::size_t i = 0; i < results.size(); i += 2) {
    const harness::ResultRow& base = results.row(i);
    const harness::ResultRow& tic = results.row(i + 1);
    const auto& info = models::FindModel(base.spec.model);
    const double ar =
        AllReduceThroughput(info, base.spec.BuildCluster(), 17);
    table.AddRow({base.spec.model, util::Fmt(base.throughput, 1),
                  util::Fmt(tic.throughput, 1), util::Fmt(ar, 1),
                  util::FmtPct(tic.throughput / ar - 1.0)});
  }
  table.Print(std::cout);
  std::cout << "\nExpected shape: all-reduce removes the PS NIC bottleneck "
               "and the forward pass\nnever waits on parameter pulls, so "
               "it leads on communication-heavy models;\nPS+TIC narrows "
               "the gap where computation dominates. Ordering inside\n"
               "collectives is the paper's named future work.\n";
  return 0;
}
